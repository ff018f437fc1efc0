package relation

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/intern"
	"repro/internal/logic"
)

// Fact is a ground atom R(c1, ..., cn): a predicate applied to constants.
// Facts are immutable interned values; the zero Fact is invalid.
type Fact struct {
	id uint32
}

type factEntry struct {
	pred intern.Sym
	args []intern.Sym
	// hash is a precomputed 64-bit FNV-1a over the id tuple; exposed for
	// hash-structured consumers (e.g. partitioners) so they never rebuild
	// string keys.
	hash uint64
	// key and str cache the canonical string encoding and display form;
	// both are built lazily (at most once) since hot paths never need them.
	key atomic.Pointer[string]
	str atomic.Pointer[string]
}

// The fact table is GC-friendly: entries live in fixed-size chunks (so the
// garbage collector scans a handful of large objects instead of one object
// per fact, and entry addresses are stable for the lazy atomic caches) and
// argument symbols are bump-allocated from pointer-free arena slabs. New
// chunks are published by swapping an atomic chunk-list snapshot, so the
// id→entry direction is lock-free.
const (
	factChunkBits = 10
	factChunkSize = 1 << factChunkBits
	argSlabSize   = 8192
)

type factChunk [factChunkSize]factEntry

var (
	factMu     sync.RWMutex
	factNext   = uint32(1) // id 0 is the invalid fact
	factChunks atomic.Pointer[[]*factChunk]
	argArena   []intern.Sym
	// factSlots is an open-addressing index over the entries' precomputed
	// hashes (0 = empty slot): content→id lookups probe it under the read
	// lock and compare symbols directly, so the index holds no strings and
	// is invisible to the garbage collector.
	factSlots []uint32
)

func init() {
	initial := []*factChunk{new(factChunk)}
	factChunks.Store(&initial)
	factSlots = make([]uint32, 1024)
}

// factProbe looks the content up in the slot index; the caller must hold
// factMu (read or write).
func factProbe(h uint64, pred intern.Sym, args []intern.Sym) (uint32, bool) {
	mask := uint32(len(factSlots) - 1)
	chunks := *factChunks.Load()
	for i := uint32(h) & mask; ; i = (i + 1) & mask {
		id := factSlots[i]
		if id == 0 {
			return 0, false
		}
		e := &chunks[id>>factChunkBits][id&(factChunkSize-1)]
		if e.hash != h || e.pred != pred || len(e.args) != len(args) {
			continue
		}
		match := true
		for j, a := range args {
			if e.args[j] != a {
				match = false
				break
			}
		}
		if match {
			return id, true
		}
	}
}

// factIndexInsert adds id to the slot index, growing it at 70% load; the
// caller must hold the write lock.
func factIndexInsert(h uint64, id uint32) {
	if 10*int(factNext) >= 7*len(factSlots) {
		grown := make([]uint32, 2*len(factSlots))
		mask := uint32(len(grown) - 1)
		chunks := *factChunks.Load()
		for _, old := range factSlots {
			if old == 0 {
				continue
			}
			oh := chunks[old>>factChunkBits][old&(factChunkSize-1)].hash
			for i := uint32(oh) & mask; ; i = (i + 1) & mask {
				if grown[i] == 0 {
					grown[i] = old
					break
				}
			}
		}
		factSlots = grown
	}
	mask := uint32(len(factSlots) - 1)
	for i := uint32(h) & mask; ; i = (i + 1) & mask {
		if factSlots[i] == 0 {
			factSlots[i] = id
			return
		}
	}
}

func factEntryOf(f Fact) *factEntry {
	if f.id == 0 {
		return nil
	}
	chunks := *factChunks.Load()
	if int(f.id>>factChunkBits) < len(chunks) {
		return &chunks[f.id>>factChunkBits][f.id&(factChunkSize-1)]
	}
	return nil
}

// internArgs copies args into the shared pointer-free arena; the returned
// slice is capacity-capped so later arena appends can never alias it.
func internArgs(args []intern.Sym) []intern.Sym {
	if len(args) == 0 {
		return nil
	}
	if len(argArena)+len(args) > cap(argArena) {
		size := argSlabSize
		if len(args) > size {
			size = len(args)
		}
		argArena = make([]intern.Sym, 0, size)
	}
	start := len(argArena)
	argArena = append(argArena, args...)
	return argArena[start:len(argArena):len(argArena)]
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func hashSyms(pred intern.Sym, args []intern.Sym) uint64 {
	h := uint64(fnvOffset)
	h = (h ^ uint64(pred)) * fnvPrime
	for _, a := range args {
		h = (h ^ uint64(a)) * fnvPrime
	}
	return h
}

// FactOf returns the interned fact for a predicate symbol and argument
// symbols; it is the allocation-free constructor on the hot path (existing
// facts cost one hash probe under a read lock).
func FactOf(pred intern.Sym, args []intern.Sym) Fact {
	h := hashSyms(pred, args)
	factMu.RLock()
	id, ok := factProbe(h, pred, args)
	factMu.RUnlock()
	if ok {
		return Fact{id: id}
	}
	factMu.Lock()
	defer factMu.Unlock()
	if id, ok := factProbe(h, pred, args); ok {
		return Fact{id: id}
	}
	id = factNext
	factNext++
	chunks := *factChunks.Load()
	if int(id>>factChunkBits) >= len(chunks) {
		next := append(append(make([]*factChunk, 0, len(chunks)+1), chunks...), new(factChunk))
		factChunks.Store(&next)
		chunks = next
	}
	e := &chunks[id>>factChunkBits][id&(factChunkSize-1)]
	e.pred = pred
	e.args = internArgs(args)
	e.hash = h
	factIndexInsert(h, id)
	return Fact{id: id}
}

// LookupFact returns the interned fact for the given content without
// interning it; ok is false when no such fact has ever been constructed
// (and therefore the fact cannot be in any database).
func LookupFact(pred intern.Sym, args []intern.Sym) (Fact, bool) {
	h := hashSyms(pred, args)
	factMu.RLock()
	id, ok := factProbe(h, pred, args)
	factMu.RUnlock()
	return Fact{id: id}, ok
}

// NewFact constructs a fact from a predicate name and constant names.
func NewFact(pred string, args ...string) Fact {
	syms := make([]intern.Sym, len(args))
	for i, a := range args {
		syms[i] = intern.S(a)
	}
	return FactOf(intern.S(pred), syms)
}

// FactFromAtom converts a ground atom to a fact. It returns an error when
// the atom contains variables.
func FactFromAtom(a logic.Atom) (Fact, error) {
	var stack [16]intern.Sym
	args := stack[:0]
	for _, t := range a.Args {
		if t.IsVar() {
			return Fact{}, fmt.Errorf("atom %s is not ground: variable %s", a, t.Name())
		}
		args = append(args, t.Sym())
	}
	return FactOf(a.Pred, args), nil
}

// MustFactFromAtom is FactFromAtom that panics on non-ground atoms; for use
// with atoms that are ground by construction.
func MustFactFromAtom(a logic.Atom) Fact {
	f, err := FactFromAtom(a)
	if err != nil {
		panic(err)
	}
	return f
}

// Pred reports the predicate symbol.
func (f Fact) Pred() intern.Sym {
	if e := factEntryOf(f); e != nil {
		return e.pred
	}
	return 0
}

// PredName reports the predicate name.
func (f Fact) PredName() string { return intern.Name(f.Pred()) }

// Args reports the argument symbols; the slice is shared and must not be
// modified.
func (f Fact) Args() []intern.Sym {
	if e := factEntryOf(f); e != nil {
		return e.args
	}
	return nil
}

// Arity reports the number of arguments.
func (f Fact) Arity() int { return len(f.Args()) }

// Arg reports the i-th argument symbol.
func (f Fact) Arg(i int) intern.Sym { return f.Args()[i] }

// ArgNames reports the argument names as strings.
func (f Fact) ArgNames() []string { return intern.Names(f.Args()) }

// Hash reports the precomputed 64-bit hash of the fact's content.
func (f Fact) Hash() uint64 {
	if e := factEntryOf(f); e != nil {
		return e.hash
	}
	return 0
}

// ID reports the dense interned id of the fact (0 for the zero Fact).
func (f Fact) ID() uint32 { return f.id }

// Atom converts the fact back into a ground atom.
func (f Fact) Atom() logic.Atom {
	args := f.Args()
	ts := make([]logic.Term, len(args))
	for i, c := range args {
		ts[i] = logic.ConstSym(c)
	}
	return logic.Atom{Pred: f.Pred(), Args: ts}
}

// Key returns the canonical string encoding of the fact, usable as a map
// key and stable across processes. Every token is length-prefixed, so
// distinct facts never collide regardless of the characters in predicate or
// constants. Hot paths identify facts by their interned id; Key is built at
// most once per distinct fact and cached.
func (f Fact) Key() string {
	e := factEntryOf(f)
	if e == nil {
		return "0:"
	}
	if k := e.key.Load(); k != nil {
		return *k
	}
	pred := intern.Name(e.pred)
	n := len(pred) + 8
	names := make([]string, len(e.args))
	for i, a := range e.args {
		names[i] = intern.Name(a)
		n += len(names[i]) + 8
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(strconv.Itoa(len(pred)))
	b.WriteByte(':')
	b.WriteString(pred)
	for _, a := range names {
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(len(a)))
		b.WriteByte(':')
		b.WriteString(a)
	}
	k := b.String()
	e.key.Store(&k)
	return k
}

// String renders the fact in the text format, e.g. R(a, b); the rendering
// is cached per distinct fact.
func (f Fact) String() string {
	e := factEntryOf(f)
	if e == nil {
		return "<invalid fact>"
	}
	if s := e.str.Load(); s != nil {
		return *s
	}
	s := f.Atom().String()
	e.str.Store(&s)
	return s
}

// Equal reports whether two facts are identical.
func (f Fact) Equal(g Fact) bool { return f.id == g.id }

// CompareFacts orders facts by predicate name, then arity, then argument
// names; it is used to produce deterministic output. The order matches the
// string-based predecessor exactly, so rendered fact sets are unchanged.
func CompareFacts(a, b Fact) int {
	if a.id == b.id {
		return 0
	}
	ea, eb := factEntryOf(a), factEntryOf(b)
	if ea == nil || eb == nil {
		switch {
		case ea == nil && eb == nil:
			return 0
		case ea == nil:
			return -1
		default:
			return 1
		}
	}
	if ea.pred != eb.pred {
		pa, pb := intern.Name(ea.pred), intern.Name(eb.pred)
		if pa != pb {
			if pa < pb {
				return -1
			}
			return 1
		}
	}
	if len(ea.args) != len(eb.args) {
		if len(ea.args) < len(eb.args) {
			return -1
		}
		return 1
	}
	for i := range ea.args {
		if ea.args[i] != eb.args[i] {
			ca, cb := intern.Name(ea.args[i]), intern.Name(eb.args[i])
			if ca != cb {
				if ca < cb {
					return -1
				}
				return 1
			}
		}
	}
	return 0
}

// SortFacts sorts a slice of facts in place into the canonical order.
func SortFacts(fs []Fact) {
	slices.SortFunc(fs, CompareFacts)
}

// FactsString renders a set of facts as a sorted, comma-separated list in
// braces, e.g. {R(a, b), T(a, b)}.
func FactsString(fs []Fact) string {
	sorted := make([]Fact, len(fs))
	copy(sorted, fs)
	SortFacts(sorted)
	parts := make([]string, len(sorted))
	for i, f := range sorted {
		parts[i] = f.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

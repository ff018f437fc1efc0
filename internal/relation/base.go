package relation

import (
	"fmt"

	"repro/internal/intern"
)

// Schema is a finite set of relation symbols with associated arities.
type Schema struct {
	arity map[intern.Sym]int
}

// NewSchema returns an empty schema.
func NewSchema() *Schema { return &Schema{arity: map[intern.Sym]int{}} }

// Add records a predicate with its arity. Re-adding with the same arity is
// a no-op; a conflicting arity is an error.
func (s *Schema) Add(pred string, arity int) error { return s.AddSym(intern.S(pred), arity) }

// AddSym is Add over an interned predicate symbol.
func (s *Schema) AddSym(pred intern.Sym, arity int) error {
	if existing, ok := s.arity[pred]; ok {
		if existing != arity {
			return fmt.Errorf("predicate %s declared with arity %d and %d", pred, existing, arity)
		}
		return nil
	}
	s.arity[pred] = arity
	return nil
}

// Arity reports the arity of a predicate name and whether it is declared.
func (s *Schema) Arity(pred string) (int, bool) {
	sym, ok := intern.Lookup(pred)
	if !ok {
		return 0, false
	}
	return s.ArityOf(sym)
}

// ArityOf reports the arity of a predicate symbol and whether it is
// declared; it is the hot-path variant of Arity.
func (s *Schema) ArityOf(pred intern.Sym) (int, bool) {
	a, ok := s.arity[pred]
	return a, ok
}

// Predicates returns the sorted predicate names.
func (s *Schema) Predicates() []string {
	syms := make([]intern.Sym, 0, len(s.arity))
	for p := range s.arity {
		syms = append(syms, p)
	}
	intern.SortSyms(syms)
	return intern.Names(syms)
}

// Clone returns an independent copy.
func (s *Schema) Clone() *Schema {
	out := NewSchema()
	for p, a := range s.arity {
		out.arity[p] = a
	}
	return out
}

// AddDatabase records every predicate of the database, inferring arities
// from the facts.
func (s *Schema) AddDatabase(d *Database) error {
	for _, f := range d.Facts() {
		if err := s.AddSym(f.Pred(), f.Arity()); err != nil {
			return err
		}
	}
	return nil
}

// Base describes B(D,Σ): the set of all facts R(c1, ..., cn) where R is a
// schema predicate and each ci is a constant occurring in dom(D) or in Σ.
// The set is typically astronomically large, so it is never materialized;
// Base answers membership queries and exposes its constant domain.
//
// A Base is immutable after construction, so the sorted domain is computed
// once and shared — operation enumeration (which consults it per TGD
// violation per state) never re-sorts it.
type Base struct {
	schema   *Schema
	consts   map[intern.Sym]bool
	domSyms  []intern.Sym // sorted by name, cached at construction
	domNames []string
}

// NewBase builds a base from a schema and a set of constant names.
func NewBase(schema *Schema, consts []string) *Base {
	syms := make([]intern.Sym, len(consts))
	for i, c := range consts {
		syms[i] = intern.S(c)
	}
	return NewBaseSyms(schema, syms)
}

// NewBaseSyms builds a base from a schema and a set of constant symbols.
func NewBaseSyms(schema *Schema, consts []intern.Sym) *Base {
	m := make(map[intern.Sym]bool, len(consts))
	for _, c := range consts {
		m[c] = true
	}
	sorted := make([]intern.Sym, 0, len(m))
	for c := range m {
		sorted = append(sorted, c)
	}
	intern.SortSyms(sorted)
	return &Base{schema: schema, consts: m, domSyms: sorted, domNames: intern.Names(sorted)}
}

// Schema returns the underlying schema.
func (b *Base) Schema() *Schema { return b.schema }

// Dom returns the sorted constant domain dom(B(D,Σ)) as names; the slice
// is cached and must not be modified.
func (b *Base) Dom() []string { return b.domNames }

// DomSyms returns the sorted constant domain as symbols; the slice is
// cached and must not be modified.
func (b *Base) DomSyms() []intern.Sym { return b.domSyms }

// HasConst reports whether the constant name belongs to the base domain.
func (b *Base) HasConst(c string) bool {
	sym, ok := intern.Lookup(c)
	return ok && b.consts[sym]
}

// Contains reports whether the fact belongs to B(D,Σ): its predicate is in
// the schema with matching arity and all its constants are in the domain.
func (b *Base) Contains(f Fact) bool {
	args := f.Args()
	arity, ok := b.schema.ArityOf(f.Pred())
	if !ok || arity != len(args) {
		return false
	}
	for _, c := range args {
		if !b.consts[c] {
			return false
		}
	}
	return true
}

// ContainsAll reports whether every fact of the slice is in the base.
func (b *Base) ContainsAll(fs []Fact) bool {
	for _, f := range fs {
		if !b.Contains(f) {
			return false
		}
	}
	return true
}

// Size returns the total number of facts in the base, i.e.
// Σ_R |dom|^arity(R). It saturates at MaxInt on overflow.
func (b *Base) Size() int {
	n := len(b.consts)
	total := 0
	for _, a := range b.schema.arity {
		count := 1
		for i := 0; i < a; i++ {
			if n != 0 && count > (int(^uint(0)>>1))/n {
				return int(^uint(0) >> 1)
			}
			count *= n
		}
		if total > (int(^uint(0)>>1))-count {
			return int(^uint(0) >> 1)
		}
		total += count
	}
	return total
}

package ops

import (
	"fmt"
	"hash/crc32"

	"repro/internal/constraint"
	"repro/internal/intern"
	"repro/internal/relation"
)

// This file implements the null-based insertions sketched under "Null
// Values" in Section 6 of the paper (after Bertossi et al.): instead of
// grounding a TGD's existential variables over the |dom|^|z̄| constants of
// the base, a single justified insertion per violation maps each
// existential variable to a fresh labeled null. This both matches how
// practical chase-style systems repair TGDs and collapses the insertion
// branching factor from |dom|^|z̄| to 1.
//
// Nulls are ordinary constants with a reserved prefix; constraint
// satisfaction and query evaluation treat them naively (each null equal
// only to itself), which is sound for satisfaction checking. Null names
// are derived deterministically from the violation identity, so chains
// remain reproducible and re-deriving the operation for the same violation
// yields the same fact. Whether a symbol is a null is recorded at intern
// time, so the per-fact null test never re-examines the string.

// NullPrefix marks labeled nulls among constants.
const NullPrefix = intern.NullPrefix

// HasNulls reports whether the fact mentions a labeled null.
func HasNulls(f relation.Fact) bool {
	for _, a := range f.Args() {
		if intern.IsNull(a) {
			return true
		}
	}
	return false
}

// NullAddition returns the single null-based justified insertion fixing a
// TGD violation: +F with F = h'(ψ) − D where h' extends h by mapping each
// existential variable to a fresh labeled null. It returns false when the
// violation is not a TGD violation or the head is (unexpectedly) already
// satisfied by the addition's absence.
func NullAddition(v constraint.Violation, d *relation.Database) (Op, bool) {
	c := v.Constraint
	if c.Kind() != constraint.TGD {
		return Op{}, false
	}
	// Each existential variable gets a canonical null derived from the
	// violation's stable string key, so null names are reproducible across
	// processes.
	h := v.H.Clone()
	sum := crc32.ChecksumIEEE([]byte(v.Key()))
	for _, z := range c.ExistentialVars() {
		h[z.Sym()] = intern.S(fmt.Sprintf("%s%08x_%s", NullPrefix, sum, z.Name()))
	}
	var facts []relation.Fact
	seen := map[relation.Fact]struct{}{}
	for _, a := range h.ApplyAtoms(c.Head()) {
		f, err := relation.FactFromAtom(a)
		if err != nil {
			panic(fmt.Sprintf("ops: TGD head atom %s not grounded by null extension %s", a, h))
		}
		if d.Contains(f) {
			continue
		}
		if _, dup := seen[f]; !dup {
			seen[f] = struct{}{}
			facts = append(facts, f)
		}
	}
	if len(facts) == 0 {
		return Op{}, false
	}
	return Insert(facts...), true
}

package logic

import (
	"fmt"
	"strings"

	"repro/internal/intern"
)

// Term is either a constant or a variable appearing in an atom.
// Terms are immutable values; equality is structural.
type Term struct {
	sym   intern.Sym
	isVar bool
}

// Const returns a constant term with the given name. Constant names are
// drawn from the countably infinite set C of the paper; any non-empty
// string is a valid constant.
func Const(name string) Term { return Term{sym: intern.S(name)} }

// Var returns a variable term with the given name. Variables are drawn from
// the set V, disjoint from C; the disjointness is enforced by the isVar tag,
// so Const("x") and Var("x") are distinct terms.
func Var(name string) Term { return Term{sym: intern.S(name), isVar: true} }

// ConstSym returns a constant term over an already-interned symbol; this is
// the allocation-free constructor used on hot paths.
func ConstSym(s intern.Sym) Term { return Term{sym: s} }

// Name reports the identifier of the term.
func (t Term) Name() string { return intern.Name(t.sym) }

// Sym reports the interned symbol of the term's identifier.
func (t Term) Sym() intern.Sym { return t.sym }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.isVar }

// IsConst reports whether the term is a constant.
func (t Term) IsConst() bool { return !t.isVar }

// Zero reports whether the term is the zero value (no name). A zero term is
// not a valid constant or variable and only arises from uninitialized data.
func (t Term) Zero() bool { return t.sym == 0 }

// String renders the term. Variables print as-is; constants that could be
// mistaken for variables (per the parser's case convention) are quoted.
func (t Term) String() string {
	if t.isVar {
		return t.Name()
	}
	return QuoteConstIfNeeded(t.Name())
}

// QuoteConstIfNeeded returns the constant name, quoted when a reader (or the
// parser) could confuse it with a variable or when it contains delimiters.
func QuoteConstIfNeeded(s string) string {
	if s == "" {
		return `""`
	}
	plain := true
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z':
		case r >= '0' && r <= '9':
		case r == '_':
		case (r >= 'A' && r <= 'Z') && i > 0:
		default:
			plain = false
		}
		if i == 0 && r >= 'A' && r <= 'Z' {
			plain = false // leading uppercase means variable in the text format
		}
		if !plain {
			break
		}
	}
	if plain {
		return s
	}
	return fmt.Sprintf("%q", s)
}

// Atom is a predicate applied to a list of terms. An atom with no variables
// is a fact. The zero Atom has an empty predicate and is invalid. The
// predicate is stored interned; use PredName for the string.
type Atom struct {
	Pred intern.Sym
	Args []Term
}

// NewAtom constructs an atom, interning the predicate name.
func NewAtom(pred string, args ...Term) Atom {
	return Atom{Pred: intern.S(pred), Args: args}
}

// PredName reports the predicate name.
func (a Atom) PredName() string { return intern.Name(a.Pred) }

// Arity reports the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// IsGround reports whether the atom contains no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if t.IsVar() {
			return false
		}
	}
	return true
}

// Vars returns the distinct variables of the atom in order of first
// occurrence.
func (a Atom) Vars() []Term {
	var out []Term
	seen := map[intern.Sym]bool{}
	for _, t := range a.Args {
		if t.IsVar() && !seen[t.sym] {
			seen[t.sym] = true
			out = append(out, t)
		}
	}
	return out
}

// String renders the atom in the text format, e.g. R(a, X).
func (a Atom) String() string {
	var b strings.Builder
	b.WriteString(a.PredName())
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Equal reports structural equality of two atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// VarsOf returns the distinct variables of a list of atoms in order of first
// occurrence; this is dom(A) ∩ V in the paper's notation.
func VarsOf(atoms []Atom) []Term {
	var out []Term
	seen := map[intern.Sym]bool{}
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.IsVar() && !seen[t.sym] {
				seen[t.sym] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// VarSymsOf returns the distinct variable symbols of a list of atoms in
// order of first occurrence.
func VarSymsOf(atoms []Atom) []intern.Sym {
	var out []intern.Sym
	seen := map[intern.Sym]bool{}
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.IsVar() && !seen[t.sym] {
				seen[t.sym] = true
				out = append(out, t.sym)
			}
		}
	}
	return out
}

// ConstsOf returns the distinct constants of a list of atoms, sorted by
// name.
func ConstsOf(atoms []Atom) []Term {
	seen := map[intern.Sym]bool{}
	var syms []intern.Sym
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.IsConst() && !seen[t.sym] {
				seen[t.sym] = true
				syms = append(syms, t.sym)
			}
		}
	}
	intern.SortSyms(syms)
	out := make([]Term, len(syms))
	for i, s := range syms {
		out[i] = ConstSym(s)
	}
	return out
}

// AtomsString renders a conjunction of atoms separated by commas.
func AtomsString(atoms []Atom) string {
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

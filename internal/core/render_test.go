package core_test

import (
	"math/big"
	"testing"

	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/logic"
)

// TestAnswerSetString pins the rendered answer block byte for byte: the
// header, one "(tuple) : p (decimal)" line per answer in order, and the
// empty-set line. The CLIs print this text verbatim.
func TestAnswerSetString(t *testing.T) {
	x, y := logic.Var("X"), logic.Var("Y")
	q := fo.MustQuery("Q", []logic.Term{x, y}, fo.Atom{A: logic.NewAtom("R", x, y)})

	as := &core.AnswerSet{Query: q, Answers: []core.Answer{
		{Tuple: []string{"a", "b"}, P: big.NewRat(1, 1)},
		{Tuple: []string{"a", "c"}, P: big.NewRat(2, 3)},
		{Tuple: []string{"d", "e"}, P: big.NewRat(1, 20)},
	}}
	want := "OCA for Q(X, Y) := R(X, Y):\n" +
		"  (a, b) : 1 (1.0000)\n" +
		"  (a, c) : 2/3 (0.6667)\n" +
		"  (d, e) : 1/20 (0.0500)\n"
	if got := as.String(); got != want {
		t.Errorf("String() =\n%q\nwant\n%q", got, want)
	}

	empty := &core.AnswerSet{Query: q}
	want = "OCA for Q(X, Y) := R(X, Y):\n  (no tuple has positive probability)\n"
	if got := empty.String(); got != want {
		t.Errorf("empty String() =\n%q\nwant\n%q", got, want)
	}
}

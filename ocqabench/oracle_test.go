package main

import (
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/generators"
	"repro/internal/parse"
	"repro/internal/serve"
)

// These tests run each oracle on real output and then feed it a wrong
// expected answer: an oracle that cannot fail would let a broken program
// read as a fast one.

var smallKeys = KeysConfig{Orders: 300, Customers: 60, ViolationRate: 0.2, MinGroup: 2, MaxGroup: 4}

// testEnv builds ocqa into a temporary directory.
func testEnv(t *testing.T) *Env {
	t.Helper()
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", filepath.Join(bin, "ocqa"), "repro/cmd/ocqa")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building ocqa: %v\n%s", err, out)
	}
	return &Env{Bin: bin, Work: t.TempDir(), Seed: 3}
}

// runOnce runs b's job once and returns ocqa's output.
func runOnce(t *testing.T, env *Env, b *Batch) string {
	t.Helper()
	paths, err := writeInputs(env.Work, b.Files)
	if err != nil {
		t.Fatal(err)
	}
	j, err := runOCQA(env, paths, b.Args)
	if err != nil {
		t.Fatal(err)
	}
	return j.stdout
}

// firstAnswer returns one tuple of an expected answer map.
func firstAnswer(want map[string]string) string {
	for k := range want {
		return k
	}
	return ""
}

func TestKeysFactoredOracle(t *testing.T) {
	env := testEnv(t)
	b, err := keysFactoredOf(smallKeys, env.Seed)
	if err != nil {
		t.Fatal(err)
	}
	out := runOnce(t, env, b)
	if err := b.Check(out); err != nil {
		t.Fatalf("oracle rejects correct output: %v", err)
	}
	inst := GenKeys(smallKeys, env.Seed)
	want := map[string]string{}
	// Rebuild the expectation through the oracle's own checker, then break
	// one probability, one count and the answer set.
	got, err := answerLines(answerBlock(out))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range got {
		want[k] = v
	}
	if err := checkKeysFactored(out, inst, want); err != nil {
		t.Fatalf("oracle rejects its own expectation: %v", err)
	}
	tup := firstAnswer(want)
	wrong := copyMap(want)
	wrong[tup] = "1/7 (0.1429)"
	if checkKeysFactored(out, inst, wrong) == nil {
		t.Error("oracle accepted a wrong probability")
	}
	wrong = copyMap(want)
	wrong["(c999999, n999999_0)"] = "1 (1.0000)"
	if checkKeysFactored(out, inst, wrong) == nil {
		t.Error("oracle accepted a missing answer")
	}
	bad := *inst
	bad.Groups++
	if checkKeysFactored(out, &bad, want) == nil {
		t.Error("oracle accepted a wrong island count")
	}
}

func TestKeysSATOracle(t *testing.T) {
	env := testEnv(t)
	b, err := keysSATOf(smallKeys, env.Seed)
	if err != nil {
		t.Fatal(err)
	}
	out := runOnce(t, env, b)
	if err := b.Check(out); err != nil {
		t.Fatalf("oracle rejects correct output: %v", err)
	}
	inst := GenKeys(smallKeys, env.Seed)
	want, err := answerLines(answerBlock(out))
	if err != nil {
		t.Fatal(err)
	}
	wrong := copyMap(want)
	delete(wrong, firstAnswer(want))
	if checkKeysSAT(out, inst, wrong) == nil {
		t.Error("oracle accepted an extra certain answer")
	}
	bad := *inst
	bad.Facts++
	if checkKeysSAT(out, &bad, want) == nil {
		t.Error("oracle accepted a wrong fact count")
	}
}

func TestPrefOracle(t *testing.T) {
	env := testEnv(t)
	b, err := prefExact(env.Seed)
	if err != nil {
		t.Fatal(err)
	}
	out := runOnce(t, env, b)
	if err := b.Check(out); err != nil {
		t.Fatalf("oracle rejects correct output: %v", err)
	}
	inst := GenPref(PrefConfig, env.Seed)
	if checkPref(out, inst, digest("not the answers")) == nil {
		t.Error("oracle accepted a wrong golden digest")
	}
	bad := *inst
	bad.Conflicts--
	if checkPref(out, &bad, prefGolden) == nil {
		t.Error("oracle accepted a wrong repair count")
	}
	if err := b.SetupCheck(env); err != nil {
		t.Errorf("reduced tournament: %v", err)
	}
}

// TestPrefGoldenSeedInvariant checks that renaming by seed leaves the
// canonical answers unchanged, which is what lets one golden digest
// serve every seed.
func TestPrefGoldenSeedInvariant(t *testing.T) {
	var canon []string
	for _, seed := range []int64{1, 2} {
		inst := GenPref(PrefReduced, seed)
		ans, err := treeAnswers(inst)
		if err != nil {
			t.Fatal(err)
		}
		canon = append(canon, inst.CanonAnswers(ans))
	}
	if canon[0] != canon[1] {
		t.Errorf("canonical answers differ across seeds:\n%s\n%s", canon[0], canon[1])
	}
}

func TestServeOracle(t *testing.T) {
	const islands = 50
	cfg := ServeConfig(islands, 200, 5)
	_, d, ops := GenServe(cfg)
	sigma, err := parse.Constraints(serveConstraint)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(d, sigma, generators.Uniform{}, serve.Options{MaxStates: maxStates})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(serve.Handler(s))
	defer ts.Close()
	var applied []serve.Op
	for _, op := range ops {
		if op.Ingest {
			applied = append(applied, serve.Op{Fact: op.Fact, Insert: op.Insert})
		}
	}
	if len(applied) == 0 {
		t.Fatal("stream has no ingest")
	}
	for _, op := range applied {
		if _, err := s.Ingest([]serve.Op{op}); err != nil {
			t.Fatal(err)
		}
	}
	env := &Env{Seed: 5}
	res := &Result{Correct: true}
	if err := checkServed(env, res, newConn(ts.URL), islands, finalDB(d, ops)); err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("oracle rejects a correct server: %d failures", res.Failed)
	}
	// The initial database is the wrong expectation once toggles applied.
	res = &Result{Correct: true}
	if err := checkServed(env, res, newConn(ts.URL), islands, d); err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Correct {
		t.Error("oracle accepted a stale expected database")
	}
}

// TestTraceAddsUp checks that the layers' self times and the remainder add
// up to the traced job time, and that the composed pipeline prints what
// ocqa prints.
func TestTraceAddsUp(t *testing.T) {
	env := testEnv(t)
	b, err := keysFactoredOf(smallKeys, env.Seed)
	if err != nil {
		t.Fatal(err)
	}
	out := runOnce(t, env, b)
	tr := NewTracer(true)
	var got string
	if _, err := tr.traced(0, func() error {
		var err error
		got, err = b.Compose(tr, b.Files)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != answerBlock(out) {
		t.Fatalf("composed answers differ from ocqa's:\n%s\nvs\n%s", got, answerBlock(out))
	}
	bd := tr.Breakdown(0)
	var sum int64
	for _, d := range bd.Self {
		sum += int64(d)
	}
	if sum != int64(bd.Total) || bd.Total <= 0 {
		t.Fatalf("self times add up to %d ns, job took %d ns", sum, bd.Total)
	}
	if !strings.Contains(got, "OCA for") {
		t.Fatalf("unexpected answer block %q", got)
	}
}

func copyMap(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

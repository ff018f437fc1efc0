package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/abc"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/generators"
	"repro/internal/markov"
	"repro/internal/parse"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/sat"
)

// Layers are named after the modules whose public calls the spans wrap.
// Every traced run reports <layer>.s (self time) and <layer>.alloc_mb
// (bytes allocated during the span minus its children) for each, zero
// where a workload does not run the layer.
var layers = []string{
	"parse",         // parse.Database, parse.Constraints, parse.Query
	"constraint",    // repair.NewInstanceOpts and its root constraint.FindViolations
	"abc",           // abc.NewPartition
	"core.explore",  // core.BuildScope.Explore over every island, plus Accounting
	"core.assemble", // untouched core plus core.AssembleFactored
	"core.exact",    // core.ComputeMode (the DAG engine)
	"core.query",    // core.Factored.OCA, core.Semantics.OCA
	"core.render",   // core.AnswerSet.String
	"sat.encode",    // sat.NewEncoder
	"sat.solve",     // sat.Encoder.CertainAnswers
	"serve.build",   // serve.New: the resident server's initial snapshot
	"serve.ingest",  // serve.Server.Ingest
	"serve.read",    // serve.Server.FactProbability, serve.Server.CP
}

// counts are the per-layer work counters every traced run reports, zero
// where a workload does not run the layer.
var counts = []struct{ name, unit string }{
	{"parse.facts", "count"},
	{"constraint.violations", "count"},
	{"abc.islands", "count"},
	{"core.explore.islands", "count"},
	{"core.explore.hit_ratio", "ratio"},
	{"core.exact.repairs", "count"},
	{"core.query.answers", "count"},
	{"core.render.bytes", "count"},
	{"sat.vars", "count"},
	{"sat.clauses", "count"},
	{"sat.candidates", "count"},
	{"sat.immediate_ratio", "ratio"},
	{"sat.decisions", "count"},
	{"sat.conflicts", "count"},
	{"serve.ops_per_publish", "ratio"},
	{"serve.recomputed_per_publish", "ratio"},
	{"serve.shard_skew", "ratio"},
}

// rootSpan names the span around one whole job; its self time is the
// untraced remainder.
const rootSpan = "job"

// Span is one timed layer call.
type Span struct {
	Name       string
	Job        int
	Parent     int // index into Tracer.spans, -1 for a root
	Start, End time.Duration
	// AllocStart and AllocEnd read /gc/heap/allocs:bytes, which needs no
	// stop-the-world.
	AllocStart, AllocEnd uint64
}

// Tracer records spans in memory. A disabled Tracer records nothing, so
// the same composed pipeline runs traced and untraced.
type Tracer struct {
	on     bool
	t0     time.Time
	job    int
	spans  []Span
	stack  []int
	counts map[string]float64
	sample []metrics.Sample
}

// NewTracer returns a tracer; on selects whether it records spans.
func NewTracer(on bool) *Tracer {
	return &Tracer{
		on:     on,
		t0:     time.Now(),
		counts: map[string]float64{},
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *Tracer) allocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// Begin opens a span nested in the innermost open one.
func (t *Tracer) Begin(name string) {
	if !t.on {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, Span{Name: name, Job: t.job, Parent: parent, AllocStart: t.allocs(), Start: time.Since(t.t0)})
	t.stack = append(t.stack, len(t.spans)-1)
}

// End closes the innermost open span.
func (t *Tracer) End() {
	if !t.on {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = time.Since(t.t0)
	t.spans[i].AllocEnd = t.allocs()
}

// Count records a work counter; counters are deterministic per input, so
// the last write wins.
func (t *Tracer) Count(name string, v float64) { t.counts[name] = v }

// JobBreakdown is the self time and self allocation of every layer in one
// job, keyed by span name.
type JobBreakdown struct {
	Total time.Duration
	Self  map[string]time.Duration
	Alloc map[string]uint64
}

// Breakdown folds the spans of the given jobs into self times: a span's
// duration minus the part its children cover. Children never overlap in a
// sequential pipeline, so the self times add up to the roots' durations.
func (t *Tracer) Breakdown(jobs ...int) JobBreakdown {
	b := JobBreakdown{Self: map[string]time.Duration{}, Alloc: map[string]uint64{}}
	want := map[int]bool{}
	for _, j := range jobs {
		want[j] = true
	}
	childDur := map[int]time.Duration{}
	childAlloc := map[int]uint64{}
	for _, s := range t.spans {
		if !want[s.Job] || s.Parent < 0 {
			continue
		}
		childDur[s.Parent] += s.End - s.Start
		childAlloc[s.Parent] += s.AllocEnd - s.AllocStart
	}
	for i, s := range t.spans {
		if !want[s.Job] {
			continue
		}
		b.Self[s.Name] += s.End - s.Start - childDur[i]
		b.Alloc[s.Name] += s.AllocEnd - s.AllocStart - childAlloc[i]
		if s.Parent < 0 {
			b.Total += s.End - s.Start
		}
	}
	return b
}

// traced runs one composed job inside a root span and returns its wall
// time.
func (t *Tracer) traced(job int, fn func() error) (time.Duration, error) {
	t.job = job
	start := time.Now()
	t.Begin(rootSpan)
	err := fn()
	t.End()
	return time.Since(start), err
}

// report turns the breakdown of the median traced job, plus any extra
// jobs, and the counters into per-layer metrics, so that the layers' self
// times and the untraced remainder add up to the reported job time. Job i
// is traced[i].
func report(res *Result, t *Tracer, traced, untraced []time.Duration, extra ...int) error {
	if len(traced) == 0 || len(untraced) == 0 {
		return fmt.Errorf("no traced or untraced job completed")
	}
	order := make([]int, len(traced))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return traced[order[a]] < traced[order[b]] })
	med := order[len(order)/2]
	b := t.Breakdown(append(extra, med)...)
	var sum time.Duration
	for _, l := range layers {
		res.set(l+".s", secs(b.Self[l]), "s")
		res.set(l+".alloc_mb", float64(b.Alloc[l])/(1<<20), "MB")
		sum += b.Self[l]
	}
	sum += b.Self[rootSpan]
	if sum != b.Total {
		return fmt.Errorf("layer self times add up to %v, traced job took %v", sum, b.Total)
	}
	for _, c := range counts {
		res.set(c.name, t.counts[c.name], c.unit)
	}
	res.set("trace.job.s", secs(b.Total), "s")
	res.set("trace.remainder.s", secs(b.Self[rootSpan]), "s")
	tm, um := medianDur(traced), medianDur(untraced)
	res.set("trace.overhead", tm/um-1, "ratio")
	info("traced jobs %d (median %.4f s), untraced jobs %d (median %.4f s)", len(traced), tm, len(untraced), um)
	for _, l := range layers {
		if b.Self[l] > 0 {
			info("  %-14s %8.4f s self  %8.2f MB", l, secs(b.Self[l]), float64(b.Alloc[l])/(1<<20))
		}
	}
	info("  %-14s %8.4f s self", "(remainder)", secs(b.Self[rootSpan]))
	return nil
}

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = secs(d)
	}
	return median(xs)
}

// traceBatch is the traced run of a batch workload. One ocqa job gives the
// reference answers; then untraced and traced in-process jobs alternate
// for the measuring time, and each must print byte-identical answers, so
// the trace measures the computation the CLI runs.
func traceBatch(env *Env, b *Batch) (*Result, error) {
	paths, err := writeInputs(env.Work, b.Files)
	if err != nil {
		return nil, err
	}
	res := &Result{Correct: true}
	res.Attempted++
	j, err := runOCQA(env, paths, b.Args)
	if err != nil {
		return nil, err
	}
	if err := b.Check(j.stdout); err != nil {
		res.fail("wrong answer: %v", err)
	}
	want := answerBlock(j.stdout)
	on, off := NewTracer(true), NewTracer(false)
	var traced, untraced []time.Duration
	start := time.Now()
	for i := 0; len(traced) < minJobs || time.Since(start) < env.Seconds; i++ {
		t := off
		if i%2 == 1 {
			t = on
		}
		res.Attempted++
		var got string
		d, err := t.traced(len(traced), func() error {
			files, err := readFiles(paths)
			if err != nil {
				return err
			}
			got, err = b.Compose(t, files)
			return err
		})
		if err != nil {
			res.fail("composed pipeline: %v", err)
			break
		}
		if got != want {
			res.fail("composed pipeline answers differ from ocqa's (%d vs %d bytes)", len(got), len(want))
			break
		}
		if err := checkCounts(t, b.Counts); err != nil {
			res.fail("%v", err)
			break
		}
		if t == on {
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
		}
	}
	if err := report(res, on, traced, untraced); err != nil {
		return nil, err
	}
	return res, nil
}

// checkCounts compares the tracer's counters with the generator's
// expectations.
func checkCounts(t *Tracer, want map[string]float64) error {
	for name, w := range want {
		if got := t.counts[name]; got != w {
			return fmt.Errorf("%s = %g, generator expects %g", name, got, w)
		}
	}
	return nil
}

// parsed holds the parsed constraints and query of a batch job.
type parsed struct {
	sigma *constraint.Set
	q     *fo.Query
}

// parseInputs is the parse layer of every batch pipeline.
func parseInputs(t *Tracer, files map[string]string) (*relation.Database, *parsed, error) {
	t.Begin("parse")
	defer t.End()
	d, err := parse.Database(files["db"])
	if err != nil {
		return nil, nil, err
	}
	sigma, err := parse.Constraints(files["constraints"])
	if err != nil {
		return nil, nil, err
	}
	q, err := parse.Query(files["query"])
	if err != nil {
		return nil, nil, err
	}
	t.Count("parse.facts", float64(d.Size()))
	return d, &parsed{sigma: sigma, q: q}, nil
}

// instance is the constraint layer: ocqa builds the repair instance and
// reports consistency before any engine runs; withRoot also runs the root
// violation search the factored and exact engines start from.
func instance(t *Tracer, d *relation.Database, p *parsed, withRoot bool) (*repair.Instance, error) {
	t.Begin("constraint")
	defer t.End()
	inst, err := repair.NewInstanceOpts(d, p.sigma, repair.Options{})
	if err != nil {
		return nil, err
	}
	inst.Consistent()
	if withRoot {
		t.Count("constraint.violations", float64(inst.Root().Violations().Len()))
	}
	return inst, nil
}

// composeFactored is ocqa -mode factored with the uniform generator,
// split at the calls core.ComputeFactored makes.
func composeFactored(t *Tracer, files map[string]string) (string, error) {
	d, p, err := parseInputs(t, files)
	if err != nil {
		return "", err
	}
	inst, err := instance(t, d, p, true)
	if err != nil {
		return "", err
	}
	t.Begin("abc")
	part := abc.NewPartition(inst.Root().Violations())
	t.End()
	t.Count("abc.islands", float64(part.Len()))

	gen := generators.Uniform{}
	t.Begin("core.explore")
	islands := part.Islands()
	opt := markov.ExploreOptions{MaxStates: maxStates, Workers: 1}
	scope := core.NewBuildScope(p.sigma, gen, opt, core.FactoredOptions{})
	explored := make([]core.Explored, len(islands))
	for i, isl := range islands {
		e, err := scope.Explore(isl)
		if err != nil {
			t.End()
			return "", err
		}
		explored[i] = e
		isl.Payload = e.Comp
	}
	hits, misses := scope.Accounting(explored)
	t.End()
	t.Count("core.explore.islands", float64(len(islands)))
	if hits+misses > 0 {
		t.Count("core.explore.hit_ratio", float64(hits)/float64(hits+misses))
	}

	t.Begin("core.assemble")
	db := inst.Initial()
	untouched := relation.NewDatabase()
	for _, f := range db.Facts() {
		if part.IslandOf(f) == nil {
			untouched.Insert(f)
		}
	}
	untouched.Seal()
	fac, err := core.AssembleFactored(db, p.sigma, gen, part, untouched, 0, hits, misses)
	t.End()
	if err != nil {
		return "", err
	}

	t.Begin("core.query")
	as, err := fac.OCA(p.q)
	t.End()
	if err != nil {
		return "", err
	}
	t.Count("core.query.answers", float64(len(as.Answers)))
	return render(t, as), nil
}

// render is the core.render layer.
func render(t *Tracer, as *core.AnswerSet) string {
	t.Begin("core.render")
	out := as.String()
	t.End()
	t.Count("core.render.bytes", float64(len(out)))
	return out
}

// composeExact is ocqa -mode exact with the preference generator.
func composeExact(t *Tracer, files map[string]string) (string, error) {
	d, p, err := parseInputs(t, files)
	if err != nil {
		return "", err
	}
	inst, err := instance(t, d, p, true)
	if err != nil {
		return "", err
	}
	t.Begin("core.exact")
	sem, err := core.ComputeMode(inst, generators.Preference{}, markov.ExploreOptions{MaxStates: maxStates}, core.WalkInduced)
	t.End()
	if err != nil {
		return "", err
	}
	t.Count("core.exact.repairs", float64(len(sem.Repairs)))
	t.Begin("core.query")
	as := sem.OCA(p.q)
	t.End()
	t.Count("core.query.answers", float64(len(as.Answers)))
	return render(t, as), nil
}

// composeSAT is ocqa -mode sat. Its answer lines are formatted the way
// ocqa prints them, outside any layer span.
func composeSAT(t *Tracer, files map[string]string) (string, error) {
	d, p, err := parseInputs(t, files)
	if err != nil {
		return "", err
	}
	if _, err := instance(t, d, p, false); err != nil {
		return "", err
	}
	t.Begin("sat.encode")
	enc, err := sat.NewEncoder(d, p.sigma, sat.Options{})
	t.End()
	if err != nil {
		return "", err
	}
	t.Begin("sat.solve")
	r, err := enc.CertainAnswers(p.q)
	t.End()
	if err != nil {
		return "", err
	}
	t.Count("sat.vars", float64(r.Vars))
	t.Count("sat.clauses", float64(r.Clauses))
	t.Count("sat.candidates", float64(r.Candidates))
	if r.Candidates > 0 {
		t.Count("sat.immediate_ratio", float64(r.Immediate)/float64(r.Candidates))
	}
	t.Count("sat.decisions", float64(r.Stats.Decisions))
	t.Count("sat.conflicts", float64(r.Stats.Conflicts))
	if len(r.Answers) == 0 {
		return fmt.Sprintf("no certain answers for %s\n", p.q), nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "certain answers for %s (probability 1 under every full-support generator, both semantics):\n", p.q)
	for _, tup := range r.Answers {
		fmt.Fprintf(&b, "  (%s) : 1\n", strings.Join(tup, ", "))
	}
	return b.String(), nil
}

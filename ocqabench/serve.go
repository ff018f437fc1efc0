package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/generators"
	"repro/internal/markov"
	"repro/internal/parse"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/serve"
	"repro/internal/workload"
)

// serve-mix settings. The ladder's first rung is the reference rate; each
// rung runs for its share of the measuring time, after an unmeasured
// warm-up at the reference rate.
const serveIslands = 20000

var (
	serveRates  = []float64{300, 600, 900} // offered operations per second
	serveShares = []float64{0.6, 0.2, 0.2}
)

const (
	// serveSetups is the number of ocqad launches whose median
	// launch-to-healthy time is setup_s; the last one serves the ladder.
	serveSetups = 3
	// lateTolerance is how far behind schedule the generator may fall:
	// past it at the reference rate the run fails, and past it at a
	// higher rung that rung has a growing backlog.
	lateTolerance = 250 * time.Millisecond
	// readP99Limit and ingestP99Limit are the latency limits a rung must
	// meet to count towards max_rate_ops_s.
	readP99Limit   = 50 * time.Millisecond
	ingestP99Limit = 250 * time.Millisecond
	// oracleSamples is the number of island edges checked against a
	// from-scratch recompute at the end of the run.
	oracleSamples = 400
	// requestTimeout bounds one HTTP request.
	requestTimeout = 10 * time.Second
	// warmup runs the stream at the reference rate before the ladder, so
	// that the structural cache holds the shapes toggles create and the
	// heap has settled after the initial build.
	warmup = 2 * time.Second
)

// daemon is one running ocqad.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error
	errb bytes.Buffer
}

// freeAddr returns a loopback address nobody listens on right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon launches ocqad and waits until /healthz answers; it returns
// the launch-to-healthy time.
func startDaemon(env *Env, paths map[string]string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{base: "http://" + addr, done: make(chan error, 1)}
	d.cmd = exec.Command(filepath.Join(env.Bin, "ocqad"), "-db", paths["db"], "-constraints", paths["constraints"], "-addr", addr)
	d.cmd.Stdout, d.cmd.Stderr = io.Discard, &d.errb
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { d.done <- d.cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case err := <-d.done:
			return nil, 0, fmt.Errorf("ocqad exited before it was healthy: %v: %s", err, d.errb.String())
		default:
		}
		if r, err := client.Get(d.base + "/healthz"); err == nil {
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
			if r.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > time.Minute {
			d.stop()
			return nil, 0, fmt.Errorf("ocqad not healthy after a minute")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop terminates ocqad and waits for it to exit.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// peakRSSMB reads ocqad's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// conn is one client connection to ocqad.
type conn struct {
	base   string
	client *http.Client
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &conn{base: base, client: &http.Client{Timeout: requestTimeout, Transport: tr}}
}

// post sends one JSON request and decodes a 200 reply into resp.
func (c *conn) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := c.client.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(r.Body)
		return fmt.Errorf("%s: HTTP %d: %s", path, r.StatusCode, msg)
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// send issues one operation of the stream. Reads alternate between
// /v1/fact and the atomic CP form of /v1/query.
func (c *conn) send(k int, op workload.ServeOp) error {
	if op.Ingest {
		req := serve.IngestRequest{}
		if op.Insert {
			req.Insert = []string{op.Fact.String()}
		} else {
			req.Delete = []string{op.Fact.String()}
		}
		var resp serve.IngestResponse
		return c.post("/v1/ingest", req, &resp)
	}
	if k%2 == 0 {
		var resp serve.FactResponse
		return c.post("/v1/fact", serve.FactRequest{Fact: op.Fact.String()}, &resp)
	}
	var resp serve.QueryResponse
	if err := c.post("/v1/query", serve.QueryRequest{Query: serveCPQuery, Tuple: op.Fact.ArgNames()}, &resp); err != nil {
		return err
	}
	if resp.P == nil || !resp.Exact {
		return fmt.Errorf("/v1/query: no exact probability")
	}
	return nil
}

// rung is the outcome of one ladder rung.
type rung struct {
	rate         float64
	read, ingest []float64 // latency from due time, ms
	// maxLate is the worst send lateness; lastLate the later of the two
	// connections' final lateness, which grows with a backlog.
	maxLate, lastLate time.Duration
	// late counts requests sent more than lateTolerance after their due
	// time; skipped those never sent.
	failed, late, skipped int
	// applied lists the ingests the server acknowledged.
	applied []workload.ServeOp
}

func (r rung) meets() bool {
	if r.failed > 0 || r.skipped > 0 || r.lastLate > lateTolerance {
		return false
	}
	_, rp, _ := tail(r.read)
	_, ip, _ := tail(r.ingest)
	return rp <= ms(readP99Limit) && ip <= ms(ingestP99Limit)
}

// runRung drives ops open-loop at rate: operation k is due at
// start + k/rate. Reads go out on one connection and ingests on another,
// each in due order; a request is timed from its due time, so a stall also
// charges the requests queued behind it. Operations still unsent a
// tolerance past the rung's end are skipped.
func runRung(reader, writer *conn, ops []workload.ServeOp, first int, rate float64) rung {
	r := rung{rate: rate}
	start := time.Now()
	end := start.Add(time.Duration(float64(len(ops)) / rate * float64(time.Second)))
	var mu sync.Mutex
	var wg sync.WaitGroup
	drive := func(c *conn, ingest bool) {
		defer wg.Done()
		var last time.Duration
		defer func() {
			mu.Lock()
			if last > r.lastLate {
				r.lastLate = last
			}
			mu.Unlock()
		}()
		for k, op := range ops {
			if op.Ingest != ingest {
				continue
			}
			due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			sent := time.Now()
			if sent.After(end.Add(lateTolerance)) {
				mu.Lock()
				r.skipped++
				mu.Unlock()
				continue
			}
			err := c.send(first+k, op)
			lat := ms(time.Since(due))
			last = sent.Sub(due)
			mu.Lock()
			if last > r.maxLate {
				r.maxLate = last
			}
			if last > lateTolerance {
				r.late++
			}
			if err != nil {
				r.failed++
				if r.failed <= 3 {
					fmt.Fprintln(os.Stderr, "ocqabench:", err)
				}
			} else if ingest {
				r.ingest = append(r.ingest, lat)
				r.applied = append(r.applied, op)
			} else {
				r.read = append(r.read, lat)
			}
			mu.Unlock()
		}
	}
	wg.Add(2)
	go drive(reader, false)
	go drive(writer, true)
	wg.Wait()
	return r
}

// ladder returns the end of the warm-up and of each rung in the operation
// stream.
func ladder(env *Env) []int {
	total := int(serveRates[0] * warmup.Seconds())
	bounds := []int{total}
	for i, rate := range serveRates {
		total += int(rate * serveShares[i] * env.Seconds.Seconds())
		bounds = append(bounds, total)
	}
	return bounds
}

// nthIngestEnd returns the index just past the n-th ingest at or after
// lo, or -1 when the stream runs out first.
func nthIngestEnd(ops []workload.ServeOp, lo, n int) int {
	for i := lo; i < len(ops); i++ {
		if ops[i].Ingest {
			n--
			if n == 0 {
				return i + 1
			}
		}
	}
	return -1
}

// serveInputs generates serve-mix's database text and an operation stream
// of n operations.
func serveInputs(env *Env, n int) (map[string]string, *relation.Database, []workload.ServeOp) {
	text, d, ops := GenServe(ServeConfig(serveIslands, n, env.Seed))
	return map[string]string{"db": text, "constraints": serveConstraint}, d, ops
}

// runServe is the untraced run of serve-mix: ocqad under an open-loop
// read/ingest mix over loopback HTTP, on a ladder of offered rates.
func runServe(env *Env) (*Result, error) {
	bounds := ladder(env)
	files, initial, ops := serveInputs(env, bounds[len(bounds)-1])
	paths, err := writeInputs(env.Work, files)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var d *daemon
	for i := 0; i < serveSetups; i++ {
		dd, took, err := startDaemon(env, paths)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs(took))
		if i < serveSetups-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	defer d.stop()

	res := &Result{Correct: true}
	reader, writer := newConn(d.base), newConn(d.base)
	warm := runRung(reader, writer, ops[:bounds[0]], 0, serveRates[0])
	res.Attempted += bounds[0]
	res.Failed += warm.failed
	if warm.failed > 0 {
		res.Correct = false
	}
	applied := warm.applied
	var rungs []rung
	var rss float64
	lo := bounds[0]
	for i, rate := range serveRates {
		r := runRung(reader, writer, ops[lo:bounds[i+1]], lo, rate)
		res.Attempted += len(ops[lo:bounds[i+1]])
		if i == 0 {
			// The reference rate must be met: a request sent too late
			// there counts as failed, not as measured.
			if n := r.failed + r.late + r.skipped; n > 0 {
				res.Failed += n
				res.Correct = false
				fmt.Fprintf(os.Stderr, "ocqabench: reference rate %g ops/s not sustained: %d failed, %d late, %d skipped, max lateness %v\n", rate, r.failed, r.late, r.skipped, r.maxLate)
			}
			// Peak memory is taken at the reference rate, like the
			// latency: overloaded rungs add a one-off spike whose size
			// varies from run to run.
			if rss, err = d.peakRSSMB(); err != nil {
				return nil, err
			}
		} else {
			// Above the reference rate a rung may fall behind (that is how
			// max_rate_ops_s is found); only requests that errored fail.
			res.Failed += r.failed
			if r.failed > 0 {
				res.Correct = false
			}
		}
		rungs = append(rungs, r)
		applied = append(applied, r.applied...)
		lo = bounds[i+1]
	}
	if err := checkServed(env, res, newConn(d.base), serveIslands, finalDB(initial, applied)); err != nil {
		return nil, err
	}

	maxRate := 0.0
	for _, r := range rungs {
		_, rp, _ := tail(r.read)
		_, ip, _ := tail(r.ingest)
		info("rung %g ops/s: reads n=%d p50=%.3f ms p~99=%.3f ms; ingests n=%d p50=%.3f ms p~99=%.3f ms; max late %v, final late %v, skipped %d, meets limits %v",
			r.rate, len(r.read), median(r.read), rp, len(r.ingest), median(r.ingest), ip, r.maxLate.Round(time.Microsecond), r.lastLate.Round(time.Microsecond), r.skipped, r.meets())
		if r.meets() && r.rate > maxRate {
			maxRate = r.rate
		}
	}
	info("max_rate_ops_s=%g (not gated); set-up launches (s): %v", maxRate, setups)
	ref := rungs[0]
	if len(ref.ingest) == 0 {
		return nil, fmt.Errorf("no ingest completed at the reference rate")
	}
	res.set("setup_s", median(setups), "s")
	res.set("p50_ms", median(ref.ingest), "ms")
	res.set("peak_rss_mb", rss, "MB")
	return res, nil
}

// finalDB replays the acknowledged toggles over the initial database; the
// writer connection sends them in order, one at a time.
func finalDB(initial *relation.Database, ops []workload.ServeOp) *relation.Database {
	d := initial.Clone()
	for _, op := range ops {
		if op.Ingest {
			if op.Insert {
				d.Insert(op.Fact)
			} else {
				d.Delete(op.Fact)
			}
		}
	}
	return d
}

// checkServed is serve-mix's oracle, the check ocqad -smoke makes: served
// probabilities of sampled island edges must equal a from-scratch
// core.ComputeFactored over the final database.
func checkServed(env *Env, res *Result, c *conn, islands int, final *relation.Database) error {
	want, err := factoredOf(final)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(env.Seed))
	for i := 0; i < oracleSamples; i++ {
		f := islandEdge(rng, islands)
		var resp serve.FactResponse
		res.Attempted++
		if err := c.post("/v1/fact", serve.FactRequest{Fact: f.String()}, &resp); err != nil {
			res.fail("oracle read: %v", err)
			continue
		}
		if w := want.FactProbability(f).RatString(); resp.P.Rat != w {
			res.fail("served P(%s) = %s, from-scratch recompute gives %s", f, resp.P.Rat, w)
		}
	}
	return nil
}

// islandEdge draws one chain edge of a random island, named as
// workload.Islands names its constants; shuffled islands may lack it, and
// its probability is then 0.
func islandEdge(rng *rand.Rand, islands int) relation.Fact {
	isl, n := rng.Intn(islands), rng.Intn(4)
	return relation.NewFact("E", fmt.Sprintf("i%08d_n%03d", isl, n), fmt.Sprintf("i%08d_n%03d", isl, n+1))
}

// factoredOf is the from-scratch recompute of a database.
func factoredOf(d *relation.Database) (*core.Factored, error) {
	sigma, err := parse.Constraints(serveConstraint)
	if err != nil {
		return nil, err
	}
	inst, err := repair.NewInstance(d, sigma)
	if err != nil {
		return nil, err
	}
	return core.ComputeFactored(inst, generators.Uniform{}, markov.ExploreOptions{MaxStates: maxStates})
}

// setupJob is the job id of serve-mix's traced set-up; its layers are
// reported beside those of the median operation chunk.
const setupJob = -1

// chunkIngests is the number of ingests in one traced serve-mix job, so
// that traced and untraced jobs carry the same write load.
const chunkIngests = 10

// buildServer is ocqad's start-up: parse, then the initial snapshot.
func buildServer(t *Tracer, files map[string]string) (*serve.Server, error) {
	t.Begin("parse")
	d, err := parse.Database(files["db"])
	if err != nil {
		t.End()
		return nil, err
	}
	sigma, err := parse.Constraints(files["constraints"])
	t.End()
	if err != nil {
		return nil, err
	}
	t.Count("parse.facts", float64(d.Size()))
	t.Begin("serve.build")
	defer t.End()
	return serve.New(d, sigma, generators.Uniform{}, serve.Options{MaxStates: maxStates})
}

// traceServe is the traced run of serve-mix: the public calls ocqad makes,
// in-process. One job is set-up (parse, then serve.New); every later job is
// a chunk of the operation stream, ten ingests and the reads between them, applied with Server.Ingest,
// Server.FactProbability and Server.CP, alternately traced and untraced.
func traceServe(env *Env) (*Result, error) {
	// In-process operations run back to back, far faster than the HTTP
	// ladder offers them, so the stream is sized for the fastest chunks.
	files, initial, ops := serveInputs(env, 10*chunkIngests*int(env.Seconds/(10*time.Millisecond)))
	res := &Result{Correct: true}
	on, off := NewTracer(true), NewTracer(false)
	var s *serve.Server
	if _, err := on.traced(setupJob, func() (err error) {
		s, err = buildServer(on, files)
		return err
	}); err != nil {
		return nil, err
	}
	defer s.Close()
	initialRecomputed := s.Stats().CumRecomputed
	q, err := parse.Query(serveCPQuery)
	if err != nil {
		return nil, err
	}
	var traced, untraced []time.Duration
	start := time.Now()
	done := 0
	for k := 0; len(traced) < minJobs || time.Since(start) < env.Seconds; k++ {
		hi := nthIngestEnd(ops, done, chunkIngests)
		if hi < 0 {
			break
		}
		t := off
		if k%2 == 1 {
			t = on
		}
		chunk := ops[done:hi]
		d, err := t.traced(len(traced), func() error {
			for k, op := range chunk {
				res.Attempted++
				if op.Ingest {
					t.Begin("serve.ingest")
					_, err := s.Ingest([]serve.Op{{Fact: op.Fact, Insert: op.Insert}})
					t.End()
					if err != nil {
						return err
					}
					continue
				}
				t.Begin("serve.read")
				if k%2 == 0 {
					s.FactProbability(op.Fact)
				} else if _, _, _, err := s.CP(q, op.Fact.ArgNames()); err != nil {
					t.End()
					return err
				}
				t.End()
			}
			return nil
		})
		if err != nil {
			res.fail("in-process operation: %v", err)
			break
		}
		done = hi
		if t == on {
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
		}
	}
	st := s.Stats()
	if st.Version > 0 {
		on.Count("serve.ops_per_publish", float64(st.CumOps)/float64(st.Version))
		on.Count("serve.recomputed_per_publish", float64(st.CumRecomputed-initialRecomputed)/float64(st.Version))
	}
	maxIsl, sum := 0, 0
	for _, sh := range st.Shards {
		sum += sh.Islands
		if sh.Islands > maxIsl {
			maxIsl = sh.Islands
		}
	}
	if sum > 0 {
		on.Count("serve.shard_skew", float64(maxIsl)/(float64(sum)/float64(len(st.Shards))))
	}
	// The in-process server must agree with a from-scratch recompute of
	// the database the applied stream leads to.
	want, err := factoredOf(finalDB(initial, ops[:done]))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(env.Seed))
	for i := 0; i < oracleSamples; i++ {
		f := islandEdge(rng, serveIslands)
		got, _ := s.FactProbability(f)
		res.Attempted++
		if got.Cmp(want.FactProbability(f)) != 0 {
			res.fail("P(%s) = %s, from-scratch recompute gives %s", f, got.RatString(), want.FactProbability(f).RatString())
		}
	}
	if err := report(res, on, traced, untraced, setupJob); err != nil {
		return nil, err
	}
	return res, nil
}

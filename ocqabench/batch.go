package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// Batch is one batch workload prepared for a seed: the input texts, the
// ocqa flags, the oracle over the CLI's output and the composed in-process
// pipeline the traced run times.
type Batch struct {
	// Files holds the input texts under the keys "db", "constraints" and
	// "query".
	Files map[string]string
	// Args are the ocqa flags besides the three input files.
	Args []string
	// Check is the oracle: it fails unless the whole CLI output is right.
	Check func(stdout string) error
	// SetupCheck, when set, runs once before any job (a cross-check that
	// needs the binaries).
	SetupCheck func(env *Env) error
	// Compose runs the same computation in-process, with a span around
	// each layer, and returns the answer block the CLI prints.
	Compose func(t *Tracer, files map[string]string) (string, error)
	// Counts are the generator's expected values of trace counters the
	// CLI does not print, asserted on every composed job.
	Counts map[string]float64
}

// setupJobs is the number of untimed first jobs whose median is setup_s.
const setupJobs = 3

// minJobs is the least number of timed jobs a run makes, whatever its
// measuring time.
const minJobs = 3

// job is one timed ocqa process.
type job struct {
	stdout string
	wall   time.Duration
	cpu    time.Duration // user plus system time of the process
	rssKB  int64
}

// runOCQA runs one ocqa job on the input files: text in, answers out.
func runOCQA(env *Env, paths map[string]string, args []string) (job, error) {
	full := append([]string{"-db", paths["db"], "-constraints", paths["constraints"], "-query", paths["query"]}, args...)
	cmd := exec.Command(filepath.Join(env.Bin, "ocqa"), full...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return job{}, fmt.Errorf("ocqa %s: %v: %s", strings.Join(args, " "), err, errb.String())
	}
	j := job{stdout: out.String(), wall: wall, cpu: cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		j.rssKB = ru.Maxrss // kilobytes on Linux
	}
	return j, nil
}

// answerBlock returns the part of ocqa's output after its header: the text
// following the last blank line.
func answerBlock(stdout string) string {
	if i := strings.LastIndex(stdout, "\n\n"); i >= 0 {
		return stdout[i+2:]
	}
	return stdout
}

// batchRun and batchTrace adapt a batch workload's constructor to a run.
func batchRun(mk func(int64) (*Batch, error)) func(*Env) (*Result, error) {
	return func(env *Env) (*Result, error) {
		b, err := mk(env.Seed)
		if err != nil {
			return nil, err
		}
		return runBatch(env, b)
	}
}

func batchTrace(mk func(int64) (*Batch, error)) func(*Env) (*Result, error) {
	return func(env *Env) (*Result, error) {
		b, err := mk(env.Seed)
		if err != nil {
			return nil, err
		}
		return traceBatch(env, b)
	}
}

// runBatch is the untraced run of a batch workload: a closed loop with one
// client, one ocqa process at a time. setup_s is the median of the first,
// untimed jobs; p50_ms the median wall time of the timed jobs; peak_rss_mb
// the median of their ru_maxrss.
func runBatch(env *Env, b *Batch) (*Result, error) {
	paths, err := writeInputs(env.Work, b.Files)
	if err != nil {
		return nil, err
	}
	res := &Result{Correct: true}
	if b.SetupCheck != nil {
		if err := b.SetupCheck(env); err != nil {
			res.fail("set-up check: %v", err)
		}
	}
	one := func() (job, bool) {
		res.Attempted++
		j, err := runOCQA(env, paths, b.Args)
		if err != nil {
			res.fail("%v", err)
			return j, false
		}
		if err := b.Check(j.stdout); err != nil {
			res.fail("wrong answer: %v", err)
			return j, false
		}
		return j, true
	}
	var setup []float64
	for i := 0; i < setupJobs; i++ {
		j, ok := one()
		if !ok {
			return nil, fmt.Errorf("set-up job failed")
		}
		setup = append(setup, secs(j.wall))
	}
	var walls, cpus, rss []float64
	start := time.Now()
	for len(walls) < minJobs || time.Since(start) < env.Seconds {
		j, ok := one()
		if !ok {
			break
		}
		walls = append(walls, ms(j.wall))
		cpus = append(cpus, ms(j.cpu))
		rss = append(rss, float64(j.rssKB)/1024)
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("no job succeeded")
	}
	info("set-up jobs (s): %v", setup)
	info("timed jobs: n=%d p50=%.1f ms min=%.1f max=%.1f; cpu p50=%.1f ms", len(walls), median(walls), quantile(walls, 0), quantile(walls, 1), median(cpus))
	if p, v, ok := tail(walls); ok {
		info("job tail: p%g=%.1f ms over %d jobs (not gated)", p, v, len(walls))
	} else {
		info("job tail: %d jobs support no percentile above the median (not gated)", len(walls))
	}
	res.set("setup_s", median(setup), "s")
	res.set("p50_ms", median(walls), "ms")
	res.set("peak_rss_mb", median(rss), "MB")
	return res, nil
}

// readFiles loads the input texts a composed pipeline parses, as ocqa's
// loaders do.
func readFiles(paths map[string]string) (map[string]string, error) {
	out := map[string]string{}
	for k, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out[k] = string(data)
	}
	return out, nil
}

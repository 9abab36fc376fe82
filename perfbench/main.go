// Command perfbench is the repository's benchmark. It runs one of three
// closed-loop workloads in a single process and prints, as the last line of
// its standard output, one JSON object with the keys correct, attempted,
// failed and metrics:
//
//	power  all 22 TPC-H queries on the six engines of engine.NewRegistry,
//	       one query at a time; the execution layers do all the work
//	drain  an in-process sqalpeld drained by the experiment driver as two
//	       releases of one engine, with analyst reads between chunks; the
//	       platform layers (driver, server, repository) do most of the work
//	space  the 22 TPC-H baselines created and grown as experiments over
//	       HTTP; derive, grammar and pool do nearly all the work
//
// Usage:
//
//	perfbench --workload power --seed 11 --seconds 30 --trace 0
//	perfbench compare <runs-a> <runs-b>
//
// With --trace 0 it reports the end-to-end metrics, measured untraced; with
// --trace 1 a traced run of the same workload reports the per-layer metrics
// and writes its spans to .bench_build/spans. Every operation's output is
// checked; a failed check is counted, makes "correct" false and the exit
// code 1. The line before the result holds the run's metadata and the
// sample count behind each metric. compare reads the captured standard
// output of two sets of runs and applies the metrics' bounds.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workDir holds everything a run writes, relative to the directory the
// benchmark runs from.
const workDir = ".bench_build"

// flushPolicy is how the durable stores of drain and space persist: every
// mutation is appended to the write-ahead log and fsynced before it
// returns, as in sqalpeld.
const flushPolicy = "fsync per mutation"

// env is what a workload gets to run with.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	rec     *recorder // nil when untraced
	dir     string    // private scratch directory of this run
	rng     *rand.Rand
	log     io.Writer
}

// outcome is what a workload measured. e2e holds the end-to-end metrics of
// an untraced run, layer the per-layer metrics of a traced one; samples
// counts the observations behind a metric where there is more than one.
type outcome struct {
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
	samples   map[string]int
	meta      map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}, meta: map[string]any{}}
}

// check counts one checked output; a false ok counts as a failure and is
// reported on the log.
func (o *outcome) check(ok bool, log io.Writer, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		if o.failed <= 20 {
			fmt.Fprintf(log, "check failed: "+format+"\n", args...)
		}
	}
}

var workloads = map[string]func(*env) (*outcome, error){
	"power": runPower,
	"drain": runDrain,
	"space": runSpace,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: power, drain or space")
	seed := fs.Int64("seed", 11, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "how long to measure")
	traceFlag := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload power|drain|space, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	dir, err := os.MkdirTemp(ensureDir(workDir), "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *traceFlag == 1,
		dir:     dir,
		rng:     rand.New(rand.NewSource(*seed)),
		log:     stderr,
	}
	if e.traced {
		e.rec = newRecorder()
	}
	out, err := w(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if e.traced {
		spanDir := ensureDir(filepath.Join(workDir, "spans"))
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := e.rec.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if err := report(stdout, *name, e, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if out.failed > 0 || out.attempted == 0 {
		return 1
	}
	return 0
}

func ensureDir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp and Create report a missing directory
	return dir
}

// report prints the metadata line and the result line.
func report(w io.Writer, name string, e *env, out *outcome) error {
	defs, values := endToEnd, out.e2e
	if e.traced {
		defs, values = perLayer, out.layer
		values["failed_frac"] = float64(out.failed) / float64(max(out.attempted, 1))
	} else {
		values["peak_rss_mb"] = peakRSSMB()
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !e.traced {
			return fmt.Errorf("%s did not measure %s", name, d.Name)
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	meta := runMeta(name, e)
	for k, v := range out.meta {
		meta[k] = v
	}
	meta["samples"] = out.samples
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		return err
	}
	return enc.Encode(map[string]any{
		"correct":   out.failed == 0 && out.attempted > 0,
		"attempted": max(out.attempted, 1),
		"failed":    out.failed,
		"metrics":   metrics,
	})
}

// runMeta stamps a result with where and how it was measured.
func runMeta(name string, e *env) map[string]any {
	return map[string]any{
		"workload":     name,
		"seed":         e.seed,
		"traced":       e.traced,
		"seconds":      e.seconds.Seconds(),
		"go_version":   runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"cpu_model":    cpuModel(),
		"git_sha":      gitSHA(),
		"flush_policy": flushPolicy,
		"time":         time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitSHA is the revision being measured, as run.sh found it; "unknown" in
// an exported checkout, which carries no history.
func gitSHA() string {
	if sha := os.Getenv("PERFBENCH_GIT_SHA"); sha != "" {
		return sha
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB; the Go
// runtime's view of memory obtained from the OS where /proc is missing.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// totalAllocMB reads the cumulative bytes allocated on the heap, in MB.
func totalAllocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / (1 << 20)
}

// timeSetup runs the set-up at least n times and for at least half a
// second, and returns the last result with the median set-up time. Each
// earlier result is released and collected before the next set-up starts,
// and the last one is collected after, so that peak memory reflects one
// set-up and the measurement starts from a collected heap.
func timeSetup[T any](n int, setup func() (T, func(), error)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	var release func()
	for start := time.Now(); len(times) < n || time.Since(start) < time.Second/2; {
		if release != nil {
			release()
		}
		runtime.GC()
		t0 := time.Now()
		v, rel, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last, release = v, rel
	}
	runtime.GC()
	return last, median(times), nil
}

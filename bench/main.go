// Command bench is the repository's benchmark: four workloads on heavy-tail
// corpora, driven from outside through the program's exported functions, with
// end-to-end metrics from an untraced run and per-layer metrics from a traced
// one. README.md in this directory is the manual; BENCHMARK.json at the root
// of the repository is the definition the driver reads.
//
//	go run -C bench . [-seed N]                      every workload, untraced then traced
//	go run -C bench . -workload NAME -seed N -seconds S -trace 0|1
//	go run -C bench . -compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric. bound is the share of the parent's median by
// which an end-to-end metric may worsen before -compare (and the driver)
// call it a regression; per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// Every workload reports every end-to-end metric; what "work" and "wait" mean
// on each workload is in the workload table below and in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"wait_p50_us", "us", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.15},
}

// tailMetric is the 99th percentile of the wait. Over ten runs it did not
// repeat within any bound the contract allows (spread 0.30 on serve.hot, 0.25
// on maintain.churn), so it is not an end-to-end metric with a bound: the
// traced run reports it among the per-layer metrics, and the untraced run
// prints it and stores it in its -out entry as information.
const tailMetric = "client.wait_p99_us"

// workload is one set of inputs. pages is the size of its heavy-tail corpus.
type workload struct {
	name  string
	pages int
	why   string
	run   func(*env) (*report, error)
}

var workloads = []workload{
	{"build.stream8k", 8000,
		"batch operator: repeated BuildStream+Reconcile of an 8k-page heavy-tail corpus on a disk page store; resolve, extract, link and index do all the work, the serving tier none",
		runBuild},
	{"serve.cold", 6000,
		"searcher, cache useless: 2 closed-loop clients walk >8192 distinct keys cyclically over a 6k-page system, so every request crosses parser, engine, index and store (0 cache hits)",
		func(e *env) (*report, error) { return runServe(e, false) }},
	{"serve.hot", 6000,
		"searcher, cache decisive: same system, mix and clients, keys zipf(1.1) over 512 entries per key space that fit the cache; a faster engine must show no change here, a cache change must",
		func(e *env) (*report, error) { return runServe(e, true) }},
	{"maintain.churn", 2000,
		"searcher beside maintenance: 2 RunPass calls fold 32 edited pages into a durable 2k-page system while one open-loop reader searches at 100/s, timed from each due time",
		runMaintain},
}

// env is what a workload is given: the driver's arguments and the tracer.
type env struct {
	seed    int64
	seconds float64
	pages   int  // corpus size; the workload's own unless -pages overrides it
	quick   bool // smoke sizes: one set-up, short phases
	tr      *tracer
	outDir  string
}

// setups is how many times a workload sets up. The untraced run reports the
// median of three, so that setup_s is steady; the traced run does not report
// it.
func (e *env) setups() int {
	if e.tr != nil || e.quick {
		return 1
	}
	return 3
}

// setUp runs setup as many times as setups says, records a span for each, and
// returns the median of their wall times in seconds: the run's setup_s. undo
// releases what the set-up before made, so that peak RSS is one set-up's and
// not two.
func (e *env) setUp(root int64, setup func() error, undo func()) (float64, error) {
	var walls []float64
	for i := 0; i < e.setups(); i++ {
		if i > 0 {
			undo()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		e.tr.record(e.tr.id(), root, root, "setup", t0, time.Now())
	}
	return median(walls), nil
}

// tempDir makes a scratch directory inside the benchmark's own out/, so a run
// writes nowhere else.
func (e *env) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(e.outDir, prefix+"-")
}

// report is what a workload measured.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	problems  []string // correctness failures; any makes the run incorrect
	info      map[string]any
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{}}
}

func (r *report) problemf(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// entry is one line of an -out file: one workload, one process, one mode.
type entry struct {
	Workload  string                 `json:"workload"`
	Trace     int                    `json:"trace"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Pages     int                    `json:"pages"`
	Host      map[string]any         `json:"host"`
	Correct   bool                   `json:"correct"`
	Problems  []string               `json:"problems,omitempty"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Info      map[string]any         `json:"info,omitempty"`
}

func hostStamp() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH, "commit": commit}
}

func values(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{vals[d.name], d.unit}
	}
	return out
}

func appendEntry(path string, e entry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readEntries(path string) ([]entry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []entry
	for _, line := range strings.Split(string(b), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var e entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, e)
	}
	return out, nil
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runOne runs one workload in this process and prints its result; the last
// line of standard output is the JSON object the driver reads.
func runOne(w *workload, e *env, outFile string) error {
	if e.pages == 0 {
		e.pages = w.pages
	}
	rep, err := w.run(e)
	if err != nil {
		return err
	}
	rep.e2e["peak_rss_mib"] = peakRSSMiB()
	if e.tr == nil {
		rep.info["wait_p99_us"] = rep.layer[tailMetric]
	}
	ent := entry{Workload: w.name, Seed: e.seed, Seconds: e.seconds, Pages: e.pages, Host: hostStamp(),
		Correct: len(rep.problems) == 0, Problems: rep.problems, Attempted: rep.attempted, Failed: rep.failed,
		EndToEnd: values(endToEnd, rep.e2e), Info: rep.info}
	if e.tr != nil {
		ent.Trace = 1
		ent.PerLayer = values(perLayer, rep.layer)
		path, err := e.tr.write(e.outDir, w.name)
		if err != nil {
			return err
		}
		fmt.Printf("trace: %s\n", path)
	}
	printEntry(ent)
	if outFile != "" {
		if err := appendEntry(outFile, ent); err != nil {
			return err
		}
	}
	metrics := ent.EndToEnd
	if e.tr != nil {
		metrics = ent.PerLayer
	}
	line, err := json.Marshal(map[string]any{"correct": ent.Correct, "attempted": ent.Attempted,
		"failed": ent.Failed, "metrics": metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !ent.Correct {
		return fmt.Errorf("%s: outputs are not correct: %s", w.name, strings.Join(rep.problems, "; "))
	}
	return nil
}

// printEntry prints every metric of a result by name, with its unit.
func printEntry(ent entry) {
	mode := "untraced"
	if ent.Trace == 1 {
		mode = "traced"
	}
	fmt.Printf("%s (%s, seed %d, %d pages, %.3g s): attempted %d, failed %d, correct %v\n",
		ent.Workload, mode, ent.Seed, ent.Pages, ent.Seconds, ent.Attempted, ent.Failed, ent.Correct)
	for _, p := range ent.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
	for _, d := range endToEnd {
		fmt.Printf("  %-34s %16.6g %s\n", d.name, ent.EndToEnd[d.name].Value, d.unit)
	}
	for _, d := range perLayer {
		if v, ok := ent.PerLayer[d.name]; ok {
			fmt.Printf("  %-34s %16.6g %s\n", d.name, v.Value, d.unit)
		}
	}
	keys := make([]string, 0, len(ent.Info))
	for k := range ent.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  info %-29s %v\n", k, ent.Info[k])
	}
}

// runAll runs every workload untraced and then traced, each in a child
// process of this binary so that peak RSS is that workload's alone, and
// checks what only a pair of runs can show: equal answers from serve.cold and
// serve.hot, and the cost of tracing.
func runAll(args []string, outFile string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	before, _ := readEntries(outFile)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(exe, append([]string{"-workload", w.name, "-trace", trace, "-out", outFile}, args...)...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %s): %w", w.name, trace, err)
			}
		}
	}
	all, err := readEntries(outFile)
	if err != nil {
		return err
	}
	run := all[len(before):]
	digests := map[string]any{}
	work := map[string][2]float64{}
	for _, ent := range run {
		if d, ok := ent.Info["answers_digest"]; ok {
			digests[ent.Workload] = d
		}
		pair := work[ent.Workload]
		pair[ent.Trace] = ent.EndToEnd["work_per_s"].Value
		work[ent.Workload] = pair
	}
	fmt.Println("trace_overhead (traced ÷ untraced work_per_s):")
	for _, w := range workloads {
		fmt.Printf("  %-34s %16.4f ratio\n", w.name, work[w.name][1]/work[w.name][0])
	}
	if digests["serve.cold"] != digests["serve.hot"] {
		return fmt.Errorf("answers_digest differs: serve.cold %v, serve.hot %v", digests["serve.cold"], digests["serve.hot"])
	}
	fmt.Printf("answers_digest %v equal on serve.cold and serve.hot; results appended to %s\n", digests["serve.cold"], outFile)
	return nil
}

func main() {
	name := flag.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 12, "length of the timed region")
	trace := flag.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
	quick := flag.Bool("quick", false, "smoke run: one set-up and sub-second phases")
	pages := flag.Int("pages", 0, "override the corpus size of the workload (not part of the gated set)")
	out := flag.String("out", "", "append each result as one JSON line to this file")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments: A.jsonl B.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	outDir, err := filepath.Abs("out")
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	if *quick {
		*seconds = 0.5
	}
	if *name == "" {
		if *out == "" {
			*out = filepath.Join(outDir, "last-run.jsonl")
			_ = os.Remove(*out) // a result of an earlier run; absent is fine
		}
		args := []string{"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds), "-pages", fmt.Sprint(*pages)}
		if *quick {
			args = append(args, "-quick")
		}
		if err := runAll(args, *out); err != nil {
			fatal(err)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	e := &env{seed: *seed, seconds: *seconds, pages: *pages, quick: *quick, outDir: outDir}
	if *trace == 1 {
		e.tr = newTracer()
	}
	if err := runOne(w, e, *out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

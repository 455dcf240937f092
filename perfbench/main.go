// Command perfbench is the repository benchmark. It drives Aegis only
// through the public APIs its users call — the aegis.Framework facade (as
// aegisctl does) and a daemon.Daemon behind ops.Server + CtlHandler (as
// aegisd does) — and times each call from outside.
//
// Usage:
//
//	perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--save FILE]
//	perfbench --compare OLD.json NEW.json
//
// Workloads: daemon-steady, daemon-control, offline-campaign (see
// README.md). The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics; the lines before it are a
// human-readable report naming every metric with its unit and sample
// count. --trace 1 runs the traced variant and reports per-layer metrics
// instead of end-to-end ones.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Seeds recorded with the benchmark: DefaultSeed is what a bare run uses
// and what tuning work looks at; HeldBackSeed is kept out of day-to-day
// use and run only to confirm a claimed gain on unseen inputs.
const (
	DefaultSeed  = 1
	HeldBackSeed = 7211
)

// metric is one reported number. Key is the name carried in the final
// JSON line ("" for report-only metrics); Name is the descriptive
// name printed in the report.
type metric struct {
	Key   string
	Name  string
	Value float64
	Unit  string
	N     int    // samples behind the value
	Note  string // which statistic (e.g. "p96.7"), or where it came from
}

// check is one output or fidelity check.
type check struct {
	Name   string
	OK     bool
	Detail string
}

// result is everything one run reports.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   int      `json:"seconds"`
	Traced    bool     `json:"traced"`
	Host      hostInfo `json:"host"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Metrics   []metric `json:"metrics"`
	Checks    []check  `json:"checks"`
	Notes     []string `json:"notes,omitempty"`
}

func (r *result) add(m metric) { r.Metrics = append(r.Metrics, m) }

// has reports whether a metric with the given JSON key was added.
func (r *result) has(key string) bool {
	for _, m := range r.Metrics {
		if m.Key == key {
			return true
		}
	}
	return false
}

func (r *result) check(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: detail})
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// options are the parsed command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	save     string
	traceOut string
}

// workloads maps each workload name to its untraced and traced runners.
var workloads = map[string]struct {
	run    func(o options, r *result) error
	traced func(o options, r *result) error
}{
	"daemon-steady":    {run: runSteady, traced: tracedSteady},
	"daemon-control":   {run: runControl, traced: tracedControl},
	"offline-campaign": {run: runOffline, traced: tracedOffline},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		o       options
		trace   int
		seed    = fs.Uint64("seed", DefaultSeed, "workload seed; the same seed gives the same inputs")
		compare = fs.Bool("compare", false, "compare two saved results (OLD NEW); refuses results from different hosts")
	)
	fs.StringVar(&o.workload, "workload", "", "workload: daemon-steady | daemon-control | offline-campaign")
	fs.IntVar(&o.seconds, "seconds", 10, "measurement window of one run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&o.save, "save", "", "also write the full result (host, samples, checks) as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("--compare needs two saved result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	o.seed = *seed
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want daemon-steady, daemon-control or offline-campaign)", o.workload)
	}
	if o.trace {
		// Spans are written here when the traced run ends.
		o.traceOut = filepath.Join(".bench_build", "perfbench-traces",
			fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	}
	r := &result{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Host: currentHost()}
	runner := w.run
	if o.trace {
		runner = w.traced
	}
	if err := runner(o, r); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	if !o.trace {
		if !r.has("mem_mb") {
			r.add(metric{Key: "mem_mb", Name: "mem_mb", Value: peakRSSMB(), Unit: "MB", N: 1, Note: "peak RSS"})
		}
		ok := 1.0
		if r.Attempted > 0 {
			ok = float64(r.Attempted-r.Failed) / float64(r.Attempted)
		}
		r.add(metric{Key: "ok_ratio", Name: "ok_ratio", Value: ok, Unit: "ratio", N: int(r.Attempted),
			Note: "1 - fail_ratio"})
		r.add(metric{Name: "fail_ratio", Value: float64(r.Failed) / float64(max(r.Attempted, 1)), Unit: "ratio", N: int(r.Attempted),
			Note: fmt.Sprintf("%d failed of %d attempted operations", r.Failed, r.Attempted)})
	}
	if o.save != "" {
		if err := saveResult(o.save, r); err != nil {
			return err
		}
	}
	return printResult(stdout, r)
}

// printResult writes the human-readable report and, last, the JSON line
// BENCHMARK.json describes.
func printResult(w io.Writer, r *result) error {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%d — %s metrics\n", r.Workload, r.Seed, r.Seconds, kind)
	host, _ := json.Marshal(r.Host)
	fmt.Fprintf(w, "# host %s\n", host)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, m := range r.Metrics {
		key := m.Key
		if key == "" {
			key = "-"
		}
		fmt.Fprintf(w, "%-34s %-20s %14.6g %-10s n=%-7d %s\n", m.Name, key, m.Value, m.Unit, m.N, m.Note)
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %-44s %-4s %s\n", c.Name, status, c.Detail)
	}
	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted int64                      `json:"attempted"`
		Failed    int64                      `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]json.RawMessage{}}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	for _, m := range r.Metrics {
		if m.Key == "" {
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Key, m.Value)
		}
		// Full precision: the value exactly as measured.
		out.Metrics[m.Key] = json.RawMessage(fmt.Sprintf(`{"value": %s, "unit": %q}`,
			strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit))
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// hostInfo identifies the machine a result was measured on. Results from
// different hosts are not comparable.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

func currentHost() hostInfo {
	return hostInfo{CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// cpuTime returns the process's user + system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func saveResult(path string, r *result) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("save result: %w", err)
	}
	return nil
}

// errOtherHost is returned when two results come from different hosts.
var errOtherHost = errors.New("results are from different hosts and are NOT comparable")

// compareFiles prints metric-by-metric ratios of two saved results, and
// refuses loudly when they were measured on different hosts or runs.
func compareFiles(oldPath, newPath string, w io.Writer) error {
	load := func(p string) (*result, error) {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &r, nil
	}
	a, err := load(oldPath)
	if err != nil {
		return err
	}
	b, err := load(newPath)
	if err != nil {
		return err
	}
	if err := comparable(a, b); err != nil {
		fmt.Fprintf(w, "!!! REFUSING TO COMPARE: %v\n", err)
		return err
	}
	byName := map[string]metric{}
	for _, m := range a.Metrics {
		byName[m.Name] = m
	}
	fmt.Fprintf(w, "%-34s %14s %14s %9s\n", "metric", "old", "new", "new/old")
	for _, m := range b.Metrics {
		if o, ok := byName[m.Name]; ok {
			fmt.Fprintf(w, "%-34s %14.6g %14.6g %9.4f %s\n", m.Name, o.Value, m.Value, m.Value/o.Value, m.Unit)
		}
	}
	return nil
}

// comparable reports why two results cannot be compared, or nil.
func comparable(a, b *result) error {
	if a.Host != b.Host {
		return fmt.Errorf("%w:\n  old %+v\n  new %+v", errOtherHost, a.Host, b.Host)
	}
	if a.Workload != b.Workload || a.Seconds != b.Seconds || a.Traced != b.Traced {
		return fmt.Errorf("results are from different runs (workload %s/%s, seconds %d/%d, traced %v/%v)",
			a.Workload, b.Workload, a.Seconds, b.Seconds, a.Traced, b.Traced)
	}
	return nil
}

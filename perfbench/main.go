// Command perfbench is the repository's end-to-end benchmark. It
// assembles the system from its public functions, the way
// cmd/ntpserver does: a stratum-2 relay synced to three loopback
// stratum-1 upstreams, serving an open-loop stream of client requests.
// It runs one of two seeded workloads:
//
//   - relay_paced: honest client requests only, well under the relay's
//     capacity;
//   - relay_flood: the same relay under attack: an abusive /24 far
//     over its rate budget, in trains, and invalid datagrams, beside
//     the honest stream.
//
// Every run also feeds a seeded colluding sim trace through the
// ensemble and checks the combined clock against the sim truth.
//
// Usage:
//
//	perfbench --workload relay_paced --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones (measured with tracing off); with --trace 1
// a traced run reports the per-layer ones, prints the per-layer self
// times and writes the spans to $PERFBENCH_OUT. A failed output check
// makes the run exit with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	tr       *tracer // nil unless trace
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's results.
type report struct {
	attempted, failed int64
	e2eM, layerM      map[string]metric
	failures          []string
	notes             []string
}

func newReport() *report {
	return &report{e2eM: map[string]metric{}, layerM: map[string]metric{}}
}

func (r *report) e2e(name string, v float64, unit string)   { r.e2eM[name] = metric{v, unit} }
func (r *report) layer(name string, v float64, unit string) { r.layerM[name] = metric{v, unit} }
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*report, error){
	"relay_paced": func(rc runConfig) (*report, error) { return runRelay(rc, pacedLoad) },
	"relay_flood": func(rc runConfig) (*report, error) { return runRelay(rc, floodLoad) },
}

func main() {
	var (
		workload = flag.String("workload", "", "relay_paced or relay_flood")
		seed     = flag.Uint64("seed", 1, "seed of the workload's inputs")
		seconds  = flag.Int("seconds", 10, "length of the measured section in seconds")
		trace    = flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	)
	flag.Parse()
	// A traced run measures half its seconds untraced and half traced,
	// each at least one whole second.
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || (*trace == 1 && *seconds < 2) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d; a traced run needs 2 seconds or more)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	rc := runConfig{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1}
	if rc.trace {
		rc.tr = newTracer()
	}
	fmt.Printf("# env %s\n", envLine(rc))

	rep, err := execute(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", rc.workload, err)
		os.Exit(1)
	}

	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	out := rep.e2eM
	if rc.trace {
		out = rep.layerM
		rc.tr.selfTable(os.Stdout)
		if dir := os.Getenv("PERFBENCH_OUT"); dir != "" {
			path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.tsv", rc.workload, rc.seed))
			if err := rc.tr.write(path); err != nil {
				rep.fail("writing spans: %v", err)
			} else {
				fmt.Println("# spans written to", path)
			}
		}
	}
	for _, name := range sortedKeys(out) {
		fmt.Printf("# %-32s %14.4f %s\n", name, out[name].Value, out[name].Unit)
	}
	for _, f := range rep.failures {
		fmt.Println("# CHECK FAILED:", f)
	}
	if rep.attempted < 1 {
		rep.attempted = 1
		rep.failed = 1
		rep.fail("nothing attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.failures) == 0, rep.attempted, rep.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(rep.failures) > 0 {
		os.Exit(1)
	}
}

// execute runs one workload and adds the garbage collector's work.
func execute(rc runConfig) (*report, error) {
	gc0 := gcStats()
	rep, err := workloads[rc.workload](rc)
	if err != nil {
		return nil, err
	}
	gc1 := gcStats()
	rep.layer("go.gc_cycles", gc1.cycles-gc0.cycles, "count")
	rep.layer("go.gc_pause_ms", (gc1.pauseSec-gc0.pauseSec)*1e3, "ms")
	return rep, nil
}

func sortedKeys(m map[string]metric) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// envLine describes the machine and build a result came from.
func envLine(rc runConfig) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	b, _ := json.Marshal(map[string]any{
		"workload": rc.workload, "seed": rc.seed, "seconds": rc.seconds.Seconds(), "trace": rc.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "cpu": cpu,
		"go": runtime.Version(), "kernel": kernel, "commit": commit,
	})
	return string(b)
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap returns the live heap the latest GC cycle marked, in bytes.
func liveHeap() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

type gcCounts struct{ cycles, pauseSec float64 }

// gcStats reads the GC cycle count and total stop-the-world pause.
func gcStats() gcCounts {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcCounts{float64(m.NumGC), float64(m.PauseTotalNs) / 1e9}
}

// stealTicks returns the machine's cumulative steal time in clock ticks
// (USER_HZ): time the hypervisor ran something else while this guest's
// vCPUs were runnable. -1 when unknown.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

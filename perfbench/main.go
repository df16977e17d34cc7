// Command perfbench is the repository's benchmark. It runs one named
// workload against an in-process cluster built only through the public
// abcast API, checks the cluster's outputs for correctness, and prints the
// workload's metrics as one JSON object on the last line of its output.
//
//	perfbench --workload kv-small --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with the layer wrappers installed and prints the per-layer
// metrics. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed for arrivals, keys, values and mem-network delays")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	out := flag.String("out", ".perfbench", "directory for WAL directories and traces")
	flag.Parse()

	w, ok := workloads()[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	r := newRunner(&w, *seed, time.Duration(*seconds)*time.Second, *out)
	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = r.traced()
	} else {
		res, err = r.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.details["provenance"] = provenance(&w, *seed, *trace)
	if err := json.NewEncoder(os.Stdout).Encode(r.details); err != nil {
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed:")
		for _, v := range r.violations {
			fmt.Fprintln(os.Stderr, "  ", v)
		}
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads() {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// provenance records where and how a result was produced.
func provenance(w *workload, seed uint64, trace int) map[string]any {
	return map[string]any{
		"commit":     commit(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"seed":       seed,
		"trace":      trace,
		"workload":   w,
	}
}

// commit returns the checked-out commit when the working directory is a
// git checkout, else $PERFBENCH_COMMIT, else "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
				return strings.TrimSpace(string(b))
			}
			return r
		}
		return ref
	}
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

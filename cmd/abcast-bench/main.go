// Command abcast-bench runs the reproduction experiments (E1–E10, mapped
// to the paper's claims in the internal/experiments package doc, plus the E11–E13 ablations, the E14 pipeline/batching
// shootout over both the simulated LAN and a TCP loopback transport, the
// E15 group-commit-WAL-versus-sync-per-write storage comparison, the E16
// sharded multi-group ordering scaling study, the E17 shared-process-
// services background-cost study, the E18 log-lifecycle study —
// bounded state under churn and streaming-versus-batch merge latency —
// the E19 latency fast-path study: tentative-versus-confirmed commit
// latency, leased versus unleased, on mem and TCP transports — and the
// E20 ordering/dissemination split study: sequencer egress and delivered
// throughput, full-payload versus ring dissemination, across payload
// sizes and cluster sizes — and the E21 closed-loop autotuning study:
// adaptive batching/pipeline/group-commit knobs against both static
// extremes through a phase-shifting workload — and the E22 elastic-
// resharding study: a live G=2->4 scale-out and live retirement under
// closed-loop load) and prints their tables. The README sections quote
// its full-scale output; BENCH_e19.json is generated with -e19json,
// BENCH_e20.json with -e20json, BENCH_e21.json with -e21json and
// BENCH_e22.json with -e22json.
//
// Usage:
//
//	abcast-bench                 # run everything at full scale
//	abcast-bench -quick          # small sizes (seconds, CI-friendly)
//	abcast-bench -exp E4,E5      # a subset
//	abcast-bench -md             # markdown tables
//	abcast-bench -e19json PATH   # write the E19 latency trajectory JSON
//	abcast-bench -e20json PATH   # write the E20 dissemination sweep JSON
//	abcast-bench -e21json PATH   # write the E21 autotuning phase-shift JSON
//	abcast-bench -e22json PATH   # write the E22 elastic-resharding JSON
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-size experiments")
	expFlag := flag.String("exp", "", "comma-separated experiment ids (e.g. E1,E4); empty = all")
	md := flag.Bool("md", false, "emit markdown tables")
	e19json := flag.String("e19json", "", "write the E19 latency trajectory JSON to this path and exit")
	e20json := flag.String("e20json", "", "write the E20 dissemination sweep JSON to this path and exit")
	e21json := flag.String("e21json", "", "write the E21 autotuning phase-shift JSON to this path and exit")
	e22json := flag.String("e22json", "", "write the E22 elastic-resharding scale-out JSON to this path and exit")
	flag.Parse()

	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}

	if *e19json != "" {
		if err := experiments.E19WriteJSON(scale, *e19json); err != nil {
			fmt.Fprintln(os.Stderr, "abcast-bench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *e19json)
		return
	}

	if *e20json != "" {
		if err := experiments.E20WriteJSON(scale, *e20json); err != nil {
			fmt.Fprintln(os.Stderr, "abcast-bench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *e20json)
		return
	}

	if *e21json != "" {
		if err := experiments.E21WriteJSON(scale, *e21json); err != nil {
			fmt.Fprintln(os.Stderr, "abcast-bench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *e21json)
		return
	}

	if *e22json != "" {
		if err := experiments.E22WriteJSON(scale, *e22json); err != nil {
			fmt.Fprintln(os.Stderr, "abcast-bench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *e22json)
		return
	}

	if err := run(scale, *expFlag, *md); err != nil {
		fmt.Fprintln(os.Stderr, "abcast-bench:", err)
		os.Exit(1)
	}
}

func run(scale experiments.Scale, expFlag string, md bool) error {
	var results []*experiments.Result
	start := time.Now()
	if expFlag == "" {
		var err error
		results, err = experiments.All(scale)
		if err != nil {
			return err
		}
	} else {
		for _, name := range strings.Split(expFlag, ",") {
			name = strings.TrimSpace(name)
			fn, ok := experiments.ByName(name)
			if !ok {
				return fmt.Errorf("unknown experiment %q", name)
			}
			r, err := fn(scale)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			results = append(results, r)
		}
	}
	for _, r := range results {
		if md {
			fmt.Println(r.Table.Markdown())
		} else {
			r.Table.Print(os.Stdout)
		}
		for _, n := range r.Notes {
			fmt.Printf("  note: %s\n", n)
		}
	}
	fmt.Printf("\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

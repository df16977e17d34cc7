// Package repro_test hosts the benchmark harness: one testing.B benchmark
// per experiment of internal/experiments (its package doc maps E1–E10 to
// the paper's claims). Each benchmark runs its experiment at Quick scale
// per iteration, so `go test -bench=. -benchmem` regenerates (small-scale
// versions of) every table; `cmd/abcast-bench` produces the full-scale
// numbers the README sections quote.
package repro_test

import (
	"testing"

	"repro/internal/experiments"
)

// runExperiment executes fn b.N times, printing the last table at -v.
func runExperiment(b *testing.B, fn func(experiments.Scale) (*experiments.Result, error)) {
	b.Helper()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := fn(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if testing.Verbose() && last != nil {
		lg := benchLogger{b}
		last.Table.Print(lg)
	}
}

type benchLogger struct{ b *testing.B }

func (l benchLogger) Write(p []byte) (int, error) {
	l.b.Log(string(p))
	return len(p), nil
}

// BenchmarkE1LogOps measures log operations per layer (§4.3 minimal
// logging claim).
func BenchmarkE1LogOps(b *testing.B) { runExperiment(b, experiments.E1LogOps) }

// BenchmarkE2Recovery measures replay length and recovery time with and
// without checkpointing (§5.1).
func BenchmarkE2Recovery(b *testing.B) { runExperiment(b, experiments.E2Recovery) }

// BenchmarkE3LogSize measures stable-storage growth with and without
// application checkpoints (§5.2).
func BenchmarkE3LogSize(b *testing.B) { runExperiment(b, experiments.E3LogSize) }

// BenchmarkE4CatchUp measures catch-up via consensus replay vs Δ-triggered
// state transfer (§5.3).
func BenchmarkE4CatchUp(b *testing.B) { runExperiment(b, experiments.E4CatchUp) }

// BenchmarkE5Batching measures batching throughput and early-return
// latency (§5.4).
func BenchmarkE5Batching(b *testing.B) { runExperiment(b, experiments.E5Batching) }

// BenchmarkE6IncrementalLog measures incremental vs full Unordered logging
// (§5.5).
func BenchmarkE6IncrementalLog(b *testing.B) { runExperiment(b, experiments.E6IncrementalLog) }

// BenchmarkE7VsCrashStop compares against the Chandra–Toueg crash-stop
// baseline (§5.6).
func BenchmarkE7VsCrashStop(b *testing.B) { runExperiment(b, experiments.E7VsCrashStop) }

// BenchmarkE8FaultStorm measures liveness under loss and churn (C2/C3).
func BenchmarkE8FaultStorm(b *testing.B) { runExperiment(b, experiments.E8FaultStorm) }

// BenchmarkE9Reduction measures Consensus implemented over Atomic
// Broadcast (§6.1).
func BenchmarkE9Reduction(b *testing.B) { runExperiment(b, experiments.E9Reduction) }

// BenchmarkE10Engines swaps the consensus engine under the unchanged
// broadcast transformation (§3.5).
func BenchmarkE10Engines(b *testing.B) { runExperiment(b, experiments.E10Engines) }

// BenchmarkE11FDTimeout is the failure-detector timeout ablation.
func BenchmarkE11FDTimeout(b *testing.B) { runExperiment(b, experiments.E11FDTimeout) }

// BenchmarkE12GossipInterval is the gossip-period ablation.
func BenchmarkE12GossipInterval(b *testing.B) { runExperiment(b, experiments.E12GossipInterval) }

// BenchmarkE13GroupSize is the group-size ablation.
func BenchmarkE13GroupSize(b *testing.B) { runExperiment(b, experiments.E13GroupSize) }

// BenchmarkE14Pipeline measures the round-pipeline + adaptive-batching
// ordering hot path against the basic sequential protocol.
func BenchmarkE14Pipeline(b *testing.B) { runExperiment(b, experiments.E14Pipeline) }

// BenchmarkE15Storage measures the group-commit WAL against sync-per-write
// File storage at equal durability.
func BenchmarkE15Storage(b *testing.B) { runExperiment(b, experiments.E15Storage) }

// BenchmarkE16Sharding measures sharded multi-group ordering throughput
// versus group count (one sequencer per group over a shared substrate).
func BenchmarkE16Sharding(b *testing.B) { runExperiment(b, experiments.E16Sharding) }

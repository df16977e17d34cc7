package main

import (
	"time"

	"repro/abcast"
)

// workload is one named benchmark configuration. Every field is printed
// with each result, so a result names its full option set.
type workload struct {
	Name       string  `json:"name"`
	Transport  string  `json:"transport"` // "mem" or "tcp"
	Groups     int     `json:"groups"`    // 0: one abcast.Process; >0: abcast.Sharded with this many groups
	ValueBytes int     `json:"value_bytes"`
	Keys       int     `json:"keys"`
	RatePerS   float64 `json:"rate_per_s"`
	Origins    []int   `json:"origins"` // processes that submit, round-robin

	// CrashInWindow crashes p0 at 1/3 of the window and restarts it at
	// 2/3. Other workloads run the same crash probe after the window.
	CrashInWindow bool `json:"crash_in_window"`

	RampStart  float64       `json:"ramp_start_per_s"`
	RampFactor float64       `json:"ramp_factor"`
	RampSteps  int           `json:"ramp_max_steps"`
	RampStep   time.Duration `json:"ramp_step_ns"`
	RampP99Ms  float64       `json:"ramp_commit_p99_ms"` // the capacity SLO's commit p99 bound

	Timeout time.Duration `json:"broadcast_timeout_ns"`

	// The static protocol profile, identical in every workload except
	// RingDissem.
	N               int           `json:"n"`
	PipelineDepth   int           `json:"pipeline_depth"`
	MaxBatchBytes   int           `json:"max_batch_bytes"`
	MaxBatchDelay   time.Duration `json:"max_batch_delay_ns"`
	Lease           bool          `json:"lease"`
	DigestGossip    bool          `json:"digest_gossip"`
	RingDissem      bool          `json:"ring_dissem"`
	CheckpointEvery int           `json:"checkpoint_every"`
	Delta           uint64        `json:"delta"`
	Adaptive        bool          `json:"adaptive"`
	Policy          string        `json:"policy"`
	WALNoSync       bool          `json:"wal_no_sync"`
	Tentative       bool          `json:"on_tentative"`
	MemDelayMin     time.Duration `json:"mem_delay_min_ns"`
	MemDelayMax     time.Duration `json:"mem_delay_max_ns"`
	FlushDelay      time.Duration `json:"mux_flush_delay_ns"`
}

// base is the profile every workload starts from.
func base(name string) workload {
	return workload{
		Name:            name,
		Transport:       "mem",
		ValueBytes:      128,
		Keys:            4096,
		RatePerS:        1000,
		Origins:         []int{0, 1, 2},
		RampFactor:      2,
		RampSteps:       4,
		RampStep:        2 * time.Second,
		RampP99Ms:       defaultSLO.P99Ms,
		Timeout:         5 * time.Second,
		N:               3,
		PipelineDepth:   8,
		MaxBatchBytes:   64 << 10,
		MaxBatchDelay:   500 * time.Microsecond,
		Lease:           true,
		DigestGossip:    true,
		CheckpointEvery: 256,
		Delta:           512,
		Policy:          "leader",
		Tentative:       true,
		// The WALs skip fsync and keep the rest of the group-commit
		// pipeline: on a shared disk fsync latency swings with other
		// tenants' I/O (one seed: sharded-kv commit p50 6.2 ms in one run,
		// 22.5 ms in the next; crash-recover 4.8 vs 8.5 ms).
		WALNoSync:   true,
		MemDelayMin: 200 * time.Microsecond,
		MemDelayMax: 400 * time.Microsecond,
	}
}

// workloads lists the benchmark's workloads by name.
func workloads() map[string]workload {
	kvSmall := base("kv-small")
	// The knee sat near 36k msgs/s on a 2-core host; the ×2 grid from 12000 keeps
	// its steps (12k, 24k, 48k) clear of it.
	kvSmall.RampStart = 12000

	sharded := base("sharded-kv")
	sharded.Groups = 4
	sharded.RatePerS = 3000
	sharded.FlushDelay = 200 * time.Microsecond
	sharded.RampStart = 8000

	large := base("kv-large")
	large.Transport = "tcp"
	large.RingDissem = true
	large.ValueBytes = 64 << 10
	large.Keys = 256
	large.RatePerS = 100
	large.RampStart = 300
	// Encoding the 16 MiB checkpoint stalls commits for a few hundred
	// milliseconds at any rate, so this workload's capacity SLO allows a
	// 1 s commit p99.
	large.RampP99Ms = 1000
	large.MemDelayMin, large.MemDelayMax = 0, 0

	crash := base("crash-recover")
	crash.Origins = []int{1, 2}
	crash.CrashInWindow = true
	crash.RampStart = 12000

	out := make(map[string]workload)
	for _, w := range []workload{kvSmall, sharded, large, crash} {
		out[w.Name] = w
	}
	return out
}

// protocol is the workload's ProtocolOptions with ck as the application
// Checkpointer.
func (w *workload) protocol(ck abcast.Checkpointer) abcast.ProtocolOptions {
	return abcast.ProtocolOptions{
		CheckpointEvery: w.CheckpointEvery,
		Delta:           w.Delta,
		Checkpointer:    ck,
		DigestGossip:    w.DigestGossip,
		RingDissem:      w.RingDissem,
		PipelineDepth:   w.PipelineDepth,
		MaxBatchBytes:   w.MaxBatchBytes,
		MaxBatchDelay:   w.MaxBatchDelay,
		Lease:           w.Lease,
		Adaptive:        w.Adaptive,
	}
}

// slo is the capacity rule of the workload's ramp.
func (w *workload) slo() capacitySLO {
	s := defaultSLO
	s.P99Ms = w.RampP99Ms
	return s
}

// probeOrigins are the origins that stay up while p0 is crashed.
func (w *workload) probeOrigins() []int {
	var out []int
	for _, o := range w.Origins {
		if o != 0 {
			out = append(out, o)
		}
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}

package abcast

import (
	"time"

	"repro/internal/group"
)

// SetInstallDelay makes every topology install of s sleep d before it
// publishes. Call it before Start.
func SetInstallDelay(s *Sharded, d time.Duration) {
	s.installHook = func() { time.Sleep(d) }
}

// InstallTopology hands t to s the way the stream's topology hook does and
// returns once the highest-epoch topology handed over so far is installed.
func InstallTopology(s *Sharded, t *group.Topology) {
	s.onTopology(t)
	s.install()
}

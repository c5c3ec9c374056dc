package harness

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"repro/internal/check"
)

// DistFlags are the distributed-exploration mode flags: a process is
// either a peer (`-peer -listen=<addr>`, owning a partition range and
// serving coordinator connections) or a coordinator (`-distributed
// -peers=a,b,c`, driving the run over established peers) — or neither,
// the ordinary single-process mode.
type DistFlags struct {
	peer        *bool
	listen      *string
	distributed *bool
	peers       *string
	failover    *bool
	heartbeat   *time.Duration
	peerRetries *int
}

// RegisterDistFlags declares -peer/-listen/-distributed/-peers plus the
// fail-over knobs -failover/-heartbeat/-peer-retries on fs.
func RegisterDistFlags(fs *flag.FlagSet) *DistFlags {
	return &DistFlags{
		peer:        fs.Bool("peer", false, "run as a distributed-exploration peer: serve coordinator connections on -listen and explore the partition range each run assigns"),
		listen:      fs.String("listen", "127.0.0.1:0", "peer listen address (with -peer)"),
		distributed: fs.Bool("distributed", false, "run as a distributed-exploration coordinator over the -peers processes; "+conflictHelp(check.ModeDist)),
		peers:       fs.String("peers", "", "comma-separated peer addresses (with -distributed), e.g. host1:7001,host2:7001"),
		failover:    fs.Bool("failover", false, "survive peer loss (with -distributed): redial lost peers with backoff and re-seed the run onto the reachable ones — same verdict, degraded capacity"),
		heartbeat:   fs.Duration("heartbeat", 0, "peer liveness probe period (with -distributed; 0 = 1s when -failover, else off)"),
		peerRetries: fs.Int("peer-retries", 0, "connection attempts per peer per (re)dial round (0 = 3 with -failover, else 1)"),
	}
}

// PeerMode reports whether -peer was set.
func (f *DistFlags) PeerMode() bool { return *f.peer }

// Listen returns the -listen address.
func (f *DistFlags) Listen() string { return *f.listen }

// Distributed reports whether -distributed was set.
func (f *DistFlags) Distributed() bool { return *f.distributed }

// PeerAddrs returns the parsed -peers list.
func (f *DistFlags) PeerAddrs() []string {
	if *f.peers == "" {
		return nil
	}
	parts := strings.Split(*f.peers, ",")
	addrs := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			addrs = append(addrs, p)
		}
	}
	return addrs
}

// Failover reports whether -failover was set.
func (f *DistFlags) Failover() bool { return *f.failover }

// Heartbeat returns the -heartbeat period (0 = default).
func (f *DistFlags) Heartbeat() time.Duration { return *f.heartbeat }

// PeerRetries returns the -peer-retries attempt cap (0 = default).
func (f *DistFlags) PeerRetries() int { return *f.peerRetries }

// Validate checks the mode selection as a whole.
func (f *DistFlags) Validate() error {
	if *f.peer && *f.distributed {
		return fmt.Errorf("-peer and -distributed are mutually exclusive (a process is a peer or a coordinator, not both)")
	}
	if *f.distributed && len(f.PeerAddrs()) == 0 {
		return fmt.Errorf("-distributed requires -peers with at least one address")
	}
	if !f.Distributed() && !f.PeerMode() && *f.peers != "" {
		return fmt.Errorf("-peers requires -distributed")
	}
	if !*f.distributed {
		if *f.failover {
			return fmt.Errorf("-failover requires -distributed")
		}
		if *f.heartbeat != 0 {
			return fmt.Errorf("-heartbeat requires -distributed")
		}
		if *f.peerRetries != 0 {
			return fmt.Errorf("-peer-retries requires -distributed")
		}
	}
	if *f.heartbeat < 0 {
		return fmt.Errorf("-heartbeat must not be negative")
	}
	if *f.peerRetries < 0 {
		return fmt.Errorf("-peer-retries must not be negative")
	}
	return nil
}

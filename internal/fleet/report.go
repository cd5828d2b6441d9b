package fleet

import (
	"encoding/json"
	"math"
	"sort"
	"time"
)

// LagSample is one sampler tick: the distribution of seqs-behind across
// live edges at time T since the run started.
type LagSample struct {
	T    float64 `json:"t_seconds"`
	Live int     `json:"live_edges"`
	P50  float64 `json:"p50_seqs_behind"`
	P99  float64 `json:"p99_seqs_behind"`
	Max  int64   `json:"max_seqs_behind"`
}

// ChurnEvent is one scheduled kill (and, when RejoinDelay permits, the
// replacement join) in the churn plan. The schedule is computed from
// the seed before the run starts, so it is part of the deterministic
// view.
type ChurnEvent struct {
	Edge     int     `json:"edge"`
	KillAt   float64 `json:"kill_at_seconds"`
	RejoinAt float64 `json:"rejoin_at_seconds"` // <0: never rejoins
	NewEdge  int     `json:"new_edge"`          // id of the replacement, -1 when none
}

// Convergence summarises how long edges took to reach the final head
// after it was published, in seconds.
type Convergence struct {
	Converged int     `json:"converged_edges"`
	Live      int     `json:"live_edges"`
	P50       float64 `json:"p50_seconds"`
	P99       float64 `json:"p99_seconds"`
	Max       float64 `json:"max_seconds"`
}

// Egress is the per-tier serving volume. OriginBytes is measured at the
// transport wrapped directly around the origin handler — the fault
// sites and relays sit above it — so it is the true number the fan-out
// exists to shrink.
type Egress struct {
	OriginBytes    uint64 `json:"origin_bytes"`
	OriginRequests uint64 `json:"origin_requests"`
	RelayBytes     uint64 `json:"relay_bytes"`
	RelayRequests  uint64 `json:"relay_requests"`
}

// Totals aggregates edge replica counters across the fleet.
type Totals struct {
	Polls         uint64 `json:"polls"`
	Applied       uint64 `json:"patches_applied"`
	FullSyncs     uint64 `json:"full_syncs"`
	Fallbacks     uint64 `json:"fallback_syncs"`
	CompactProbes uint64 `json:"compact_probes"`
	CompactHits   uint64 `json:"compact_probe_hits"`
	Retries       uint64 `json:"retries"`
	PollErrors    uint64 `json:"poll_errors"`
	Persisted     uint64 `json:"snapshots_persisted"`
	PersistErrors uint64 `json:"persist_errors"`
}

// SeqWaterfall is one published head's fleet-wide propagation summary:
// when it was published (seconds since run start) and how the verified
// installs that followed were distributed behind it. Like the lag
// series, waterfalls are timing observations — present in the full
// report, deliberately absent from DeterministicView.
type SeqWaterfall struct {
	Seq         int     `json:"seq"`
	PublishedAt float64 `json:"published_at_seconds"`
	Installs    int     `json:"installs"`
	P50         float64 `json:"p50_seconds"`
	P99         float64 `json:"p99_seconds"`
	Max         float64 `json:"max_seconds"`
}

// Report is a fleet run's full result, JSON-encodable for cmd/pslfleet.
type Report struct {
	Config    Config  `json:"config"`
	Tiers     int     `json:"tiers"` // 1 (edges on origin) or 2 (relay tier between)
	FinalHead int     `json:"final_head"`
	Converged bool    `json:"converged"`
	WallClock float64 `json:"wall_clock_seconds"`

	// UnverifiedSwaps counts edge installs whose fingerprint did not
	// match the origin chain. The invariant the whole protocol exists to
	// hold: this is zero, always, faults or not.
	UnverifiedSwaps uint64 `json:"unverified_swaps"`

	HeadSchedule []int        `json:"head_schedule"`
	ChurnPlan    []ChurnEvent `json:"churn_plan"`
	Killed       int          `json:"edges_killed"`
	Rejoined     int          `json:"edges_rejoined"`

	LagSeries   []LagSample    `json:"lag_series"`
	Waterfalls  []SeqWaterfall `json:"propagation_waterfalls"`
	Convergence Convergence    `json:"convergence"`
	Egress      Egress         `json:"egress"`
	Edges       Totals         `json:"edge_totals"`

	// Compactions is how many multi-step patches the relay tier served.
	Compactions uint64 `json:"relay_compactions"`

	// FailpointTriggers counts, per site, the wire and storage faults
	// the armed Config.Failpoints spec actually injected during this
	// run. Under concurrent traffic a site's seeded RNG draws in request
	// arrival order, so the totals are reproducible in distribution but
	// not byte-stable — they are deliberately absent from
	// DeterministicView.
	FailpointTriggers map[string]uint64 `json:"failpoint_triggers,omitempty"`
}

// DeterministicView extracts the fields that must be byte-identical
// across two runs with the same Config (including Seed): the topology,
// the precomputed schedules, the final head, and the invariants.
// Timing-dependent observations (lag samples, convergence seconds,
// retry and fault counters) are excluded by design — they vary with
// scheduler interleaving even under a fixed seed.
func (r *Report) DeterministicView() map[string]any {
	return map[string]any{
		"config":           r.Config,
		"tiers":            r.Tiers,
		"final_head":       r.FinalHead,
		"converged":        r.Converged,
		"unverified_swaps": r.UnverifiedSwaps,
		"head_schedule":    append([]int(nil), r.HeadSchedule...),
		"churn_plan":       append([]ChurnEvent(nil), r.ChurnPlan...),
		"edges_killed":     r.Killed,
		"edges_rejoined":   r.Rejoined,
	}
}

// DeterministicJSON renders the deterministic view with stable key
// order, the string the deflake guard compares.
func (r *Report) DeterministicJSON() string {
	b, err := json.MarshalIndent(r.DeterministicView(), "", "  ")
	if err != nil {
		panic("fleet: deterministic view not marshalable: " + err.Error())
	}
	return string(b)
}

// JSON renders the full report.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// percentile reads the p-th percentile (0 < p <= 100) from an unsorted
// sample set using nearest-rank; returns 0 for an empty set.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// seconds converts a duration for report fields.
func seconds(d time.Duration) float64 { return d.Seconds() }

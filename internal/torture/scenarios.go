package torture

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/dist"
	"repro/internal/dnssim"
	"repro/internal/faultfs"
	"repro/internal/history"
	"repro/internal/psl"
	"repro/internal/submit"
)

// DistState tortures the snapshot store: with version A durably settled
// and version B being written through the atomic discipline, any single
// fault — injected error or power cut at any operation — must leave a
// loadable snapshot that is exactly A or exactly B. Torn or
// half-renamed state surfacing from LoadStateFS is the bug this
// scenario exists to catch.
func DistState(seed int64) Scenario {
	h := history.Generate(history.Config{Versions: 8})
	listA, listB := h.ListAt(3), h.ListAt(6)
	fpA, fpB := listA.Fingerprint(), listB.Fingerprint()
	return Scenario{
		Name:     "dist-state",
		Seed:     seed,
		Prefixes: []string{"dist.state"},
		Build: func(m *faultfs.MemFS) (*Rig, error) {
			fsys := faultfs.Instrument(m, "dist.state")
			if err := dist.SaveStateFS(m, "state", listA, 3); err != nil {
				return nil, err
			}
			m.Settle()
			return &Rig{
				Workload: func() error {
					return dist.SaveStateFS(fsys, "state", listB, 6)
				},
				Recover: func() error {
					l, seq, err := dist.LoadStateFS(m, "state")
					if err != nil {
						return fmt.Errorf("snapshot unloadable after fault: %w", err)
					}
					fp := l.Fingerprint()
					switch {
					case seq == 3 && fp == fpA:
						return nil
					case seq == 6 && fp == fpB:
						return nil
					}
					return fmt.Errorf("snapshot is neither A nor B: seq=%d fp=%s", seq, fp)
				},
			}, nil
		},
	}
}

// MatcherBlob tortures the compiled-matcher store with the same
// A-or-B contract, plus the sharper invariant that a load can only ever
// return a fully verified matcher: whatever the fault leaves on disk,
// exactly one of the two (seq, fingerprint) verifications succeeds and
// the other reports an error — never a matcher that fails its chain.
func MatcherBlob(seed int64) Scenario {
	h := history.Generate(history.Config{Versions: 8})
	listA, listB := h.ListAt(2), h.ListAt(5)
	fpA, fpB := listA.Fingerprint(), listB.Fingerprint()
	envA := dist.EncodeMatcherBlob(2, fpA, psl.NewPackedMatcher(listA).Marshal())
	envB := dist.EncodeMatcherBlob(5, fpB, psl.NewPackedMatcher(listB).Marshal())
	return Scenario{
		Name:     "matcher-blob",
		Seed:     seed,
		Prefixes: []string{"dist.blob"},
		Build: func(m *faultfs.MemFS) (*Rig, error) {
			fsys := faultfs.Instrument(m, "dist.blob")
			if err := dist.SaveMatcherBlobFS(m, "state", envA); err != nil {
				return nil, err
			}
			m.Settle()
			return &Rig{
				Workload: func() error {
					return dist.SaveMatcherBlobFS(fsys, "state", envB)
				},
				Recover: func() error {
					_, errA := dist.LoadMatcherBlobFS(m, "state", 2, fpA)
					_, errB := dist.LoadMatcherBlobFS(m, "state", 5, fpB)
					switch {
					case errA == nil && errB != nil:
						return nil // still A
					case errB == nil && errA == nil:
						return errors.New("one file verified as both A and B")
					case errB == nil:
						return nil // fully B
					}
					return fmt.Errorf("matcher blob verifies as neither A (%v) nor B", errA)
				},
			}, nil
		},
	}
}

// SubmitStore tortures the submission pipeline's durable state machine.
// The workload runs one authorized submission from Submit through
// Process to published — a handful of atomic writes. Whatever single
// fault strikes, reloading the store must never abort (corrupt records
// quarantine instead), must never surface a mid-check record (checking
// re-enqueues as pending), and a re-Process of anything pending must
// reach a terminal state.
func SubmitStore(seed int64) Scenario {
	const rule = "torture-suffix.example"
	return Scenario{
		Name:     "submit-store",
		Seed:     seed,
		Prefixes: []string{"submit.persist"},
		Build: func(m *faultfs.MemFS) (*Rig, error) {
			h := history.Generate(history.Config{Versions: 8})
			origin := dist.NewOrigin(h)
			zone := dnssim.NewZone()
			cfg := submit.Config{StateDir: "state", FS: m, Resolver: zone, Manual: true}
			p, err := submit.New(origin, cfg)
			if err != nil {
				return nil, err
			}
			req := submit.Request{
				Changes: []submit.Change{{Op: "add", Rule: rule, Section: "private"}},
				Contact: "torture@example.org",
			}
			id := submit.ComputeID(req)
			zone.AddTXT("_psl."+rule, id)
			return &Rig{
				Workload: func() error {
					if _, err := p.Submit(req); err != nil {
						return err
					}
					s, err := p.Process(id)
					if err != nil {
						return err
					}
					if s.State != submit.StatePublished {
						return fmt.Errorf("clean run ended %s: %+v", s.State, s.Verdicts)
					}
					return nil
				},
				Recover: func() error {
					p2, err := submit.New(origin, cfg)
					if err != nil {
						return fmt.Errorf("reload aborted: %w", err)
					}
					for _, got := range []*submit.Submission{p2.Get(id)} {
						if got == nil {
							continue // lost before first durable write: a valid crash outcome
						}
						if got.State == submit.StateChecking {
							return errors.New("mid-check record surfaced as checking, want pending")
						}
					}
					// Anything pending must re-run to a terminal state.
					for _, pid := range p2.PendingIDs() {
						s, err := p2.Process(pid)
						if err != nil {
							return fmt.Errorf("re-process %s: %w", pid, err)
						}
						if s.State != submit.StatePublished && s.State != submit.StateRejected {
							return fmt.Errorf("re-process %s ended %s", pid, s.State)
						}
					}
					return nil
				},
			}, nil
		},
	}
}

// ReplicaResume tortures the full replica persistence loop against a
// live origin: bootstrap, poll through several head advances (each
// verified install persisting snapshot and matcher blob), with the
// fault striking any durable step. Recovery asserts the restart
// contract: a restored replica resumes patch-only (zero full syncs)
// from its persisted seq, an unrestorable state falls back to a full
// bootstrap, and either way the replica converges to the origin head
// with its fingerprint chain intact — zero unverified swaps by
// construction, checked against the chain.
func ReplicaResume(seed int64) Scenario {
	h := history.Generate(history.Config{Versions: 30})
	const midHead, finalHead = 12, 20
	return Scenario{
		Name:     "replica-resume",
		Seed:     seed,
		Prefixes: []string{"dist.state", "dist.blob"},
		Build: func(m *faultfs.MemFS) (*Rig, error) {
			origin := dist.NewOrigin(h)
			origin.SetHead(8)
			ts := httptest.NewServer(origin)
			opts := dist.ReplicaOptions{
				Client:         &http.Client{Timeout: 5 * time.Second},
				PollInterval:   time.Millisecond,
				BackoffBase:    time.Millisecond,
				BackoffMax:     10 * time.Millisecond,
				BreakerOpenFor: 10 * time.Millisecond,
				StateDir:       "state",
				FS:             m,
				FetchBlobs:     true,
				Seed:           seed,
			}
			rep := dist.NewReplica(ts.URL, opts)
			rep.OnInstall = func(l *psl.List, seq int, fp string, mm psl.Matcher) {}
			ctx := context.Background()
			return &Rig{
				Close: ts.Close,
				Workload: func() error {
					if _, _, err := rep.Bootstrap(ctx, 8); err != nil {
						return err
					}
					if err := rep.Poll(ctx); err != nil {
						return err
					}
					origin.SetHead(midHead)
					return rep.Poll(ctx)
				},
				Recover: func() error {
					origin.SetHead(finalHead)
					rep2 := dist.NewReplica(ts.URL, opts)
					rep2.OnInstall = func(l *psl.List, seq int, fp string, mm psl.Matcher) {}
					restored := true
					if _, _, err := rep2.RestoreState(); err != nil {
						// Missing or failed-verification state: both
						// legitimate post-crash outcomes, both must fall
						// back to a full verified bootstrap — never a
						// panic, never an unverified install.
						restored = false
						if _, _, berr := rep2.Bootstrap(ctx, -1); berr != nil {
							return fmt.Errorf("restore failed (%v) and bootstrap fallback failed: %w", err, berr)
						}
					}
					if err := rep2.Poll(ctx); err != nil {
						return fmt.Errorf("poll after resume: %w", err)
					}
					if got := rep2.CurrentSeq(); got != finalHead {
						return fmt.Errorf("resumed replica at seq %d, want %d", got, finalHead)
					}
					if restored && rep2.FullSyncs() != 0 {
						return fmt.Errorf("restored replica paid %d full syncs, want patch-only resume", rep2.FullSyncs())
					}
					// The fingerprint chain is the no-unverified-swaps
					// witness: the resumed state must sit exactly on it.
					l, seq, err := dist.LoadStateFS(m, "state")
					if err != nil {
						return fmt.Errorf("state unloadable after resumed polls: %w", err)
					}
					if want := origin.Chain().Fingerprint(seq); l.Fingerprint() != want {
						return fmt.Errorf("persisted state off the fingerprint chain at seq %d", seq)
					}
					// A persisted matcher blob either verifies against the
					// persisted snapshot or is refused with an error —
					// LoadMatcherBlobFS verifies internally, so a non-nil
					// matcher IS the invariant; the call must simply never
					// panic or hand back unverified bytes.
					if pm, err := dist.LoadMatcherBlobFS(m, "state", seq, l.Fingerprint()); err == nil && pm == nil {
						return errors.New("matcher blob load returned nil matcher without error")
					}
					return nil
				},
			}, nil
		},
	}
}

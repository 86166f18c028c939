package nand

import (
	"math/rand"
	"testing"
	"time"
)

// planeConfig is testConfig spread over planes per chip.
func planeConfig(planes int) Config {
	cfg := testConfig()
	cfg.Planes = planes
	return cfg
}

// TestPlaneOfGeometry: plane assignment is pure block geometry —
// chip-local block index modulo the plane count — and collapses to
// plane 0 on single-plane configs.
func TestPlaneOfGeometry(t *testing.T) {
	cfg := planeConfig(2)
	cfg.Chips = 2
	d := MustNewDevice(cfg)
	for _, tc := range []struct {
		block BlockID
		plane int
	}{
		{0, 0}, {1, 1}, {2, 0}, {15, 1}, // chip 0
		{16, 0}, {17, 1}, {31, 1}, // chip 1: chip-local index restarts
	} {
		if got := d.planeOf(tc.block); got != tc.plane {
			t.Errorf("planeOf(%d) = %d, want %d", tc.block, got, tc.plane)
		}
	}
	serial := MustNewDevice(testConfig())
	if got := serial.planeOf(7); got != 0 {
		t.Errorf("single-plane planeOf(7) = %d, want 0", got)
	}
}

// TestPlaneOverlap: with a generous reordering window, programs to
// blocks on distinct planes of one chip start together — the multi-
// plane overlap the a8 experiment measures.
func TestPlaneOverlap(t *testing.T) {
	d := MustNewDevice(planeConfig(2))
	d.SetReorderWindow(time.Hour)
	cost0, err := d.Program(d.cfg.PPNForBlockPage(0, 0), OOB{LPN: 1}) // plane 0
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(d.cfg.PPNForBlockPage(1, 0), OOB{LPN: 2}); err != nil { // plane 1
		t.Fatal(err)
	}
	if got := d.LastStart(); got != 0 {
		t.Errorf("second plane's program started at %v, want 0 (overlap)", got)
	}
	if got := d.Makespan(); got != cost0 {
		t.Errorf("makespan %v, want %v (equal-cost programs fully overlapped)", got, cost0)
	}
}

// TestPlaneWindowBounds: an op on an idle plane may run ahead of the
// chip's busiest plane by at most the reordering window — the bounded
// reordering the tentpole specifies.
func TestPlaneWindowBounds(t *testing.T) {
	const window = 100 * time.Microsecond
	d := MustNewDevice(planeConfig(2))
	d.SetReorderWindow(window)
	var busy time.Duration
	for page := 0; page < 3; page++ {
		cost, err := d.Program(d.cfg.PPNForBlockPage(0, page), OOB{LPN: uint64(page)})
		if err != nil {
			t.Fatal(err)
		}
		busy += cost
	}
	if _, err := d.Program(d.cfg.PPNForBlockPage(1, 0), OOB{LPN: 9}); err != nil {
		t.Fatal(err)
	}
	if got, want := d.LastStart(), busy-window; got != want {
		t.Errorf("windowed cross-plane program started at %v, want %v (busy %v - window %v)",
			got, want, busy, window)
	}
}

// TestPlaneWindowZeroSerializes: planes without a reordering window
// serialize on the chip clock, bit-identically to a single-plane device
// running the same operations — the a8 ladder's disabled rung.
func TestPlaneWindowZeroSerializes(t *testing.T) {
	multi := MustNewDevice(planeConfig(4))
	serial := MustNewDevice(testConfig())
	ops := []struct {
		block BlockID
		page  int
	}{{0, 0}, {1, 0}, {2, 0}, {0, 1}, {3, 0}, {1, 1}}
	for i, op := range ops {
		ppn := multi.cfg.PPNForBlockPage(op.block, op.page)
		if _, err := multi.Program(ppn, OOB{LPN: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := serial.Program(ppn, OOB{LPN: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if multi.LastStart() != serial.LastStart() || multi.LastFinish() != serial.LastFinish() {
			t.Fatalf("op %d: multi-plane [%v,%v] != serial [%v,%v] with window 0",
				i, multi.LastStart(), multi.LastFinish(), serial.LastStart(), serial.LastFinish())
		}
	}
	if multi.Makespan() != serial.Makespan() {
		t.Errorf("makespan %v != serial %v with window 0", multi.Makespan(), serial.Makespan())
	}
}

// suspendSetup programs one readable page, books an erase on another
// block of the same (single-plane) chip, and returns the erase's
// [start, fin) interval plus the readable PPN.
func suspendSetup(t *testing.T, d *Device) (eraseStart, eraseFin time.Duration, readable PPN) {
	t.Helper()
	readable = d.cfg.PPNForBlockPage(0, 0)
	if _, err := d.Program(readable, OOB{LPN: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.EraseForce(1); err != nil {
		t.Fatal(err)
	}
	return d.LastStart(), d.LastFinish(), readable
}

// TestSuspendEraseByRead: a read issued while an erase is in flight
// preempts it — the read starts at issue + suspend cost, and the erase
// remainder resumes after the read plus the resume cost, stretching the
// chip occupancy by exactly read + suspend + resume.
func TestSuspendEraseByRead(t *testing.T) {
	const sc, rc = 25 * time.Microsecond, 30 * time.Microsecond
	d := MustNewDevice(testConfig())
	d.SetSuspend(SuspendErase, sc, rc)
	eraseStart, eraseFin, readable := suspendSetup(t, d)
	issue := eraseStart + (eraseFin-eraseStart)/2
	d.AdvanceTo(issue)
	_, readCost, err := d.Read(readable)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.LastStart(), issue+sc; got != want {
		t.Errorf("suspended read started at %v, want issue %v + suspend cost %v", got, issue, sc)
	}
	if got, want := d.LastFinish(), issue+sc+readCost; got != want {
		t.Errorf("suspended read finished at %v, want %v", got, want)
	}
	resumeAt := issue + sc + readCost + rc
	remaining := eraseFin - issue
	if got, want := d.ChipFree(0), resumeAt+remaining; got != want {
		t.Errorf("chip free %v after suspension, want resume %v + remainder %v", got, resumeAt, remaining)
	}
	if got := d.Suspends(); got != 1 {
		t.Errorf("suspends = %d, want 1", got)
	}
}

// TestSuspendPolicyGates: SuspendErase leaves in-flight programs alone
// (the read queues behind them), SuspendFull preempts them, and
// SuspendOff — the zero value — never preempts anything.
func TestSuspendPolicyGates(t *testing.T) {
	const sc, rc = 25 * time.Microsecond, 25 * time.Microsecond
	run := func(policy SuspendPolicy, configure bool) (lastStart, chipBusyFin time.Duration) {
		d := MustNewDevice(testConfig())
		if configure {
			d.SetSuspend(policy, sc, rc)
		}
		readable := d.cfg.PPNForBlockPage(0, 0)
		if _, err := d.Program(readable, OOB{LPN: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Program(d.cfg.PPNForBlockPage(0, 1), OOB{LPN: 2}); err != nil {
			t.Fatal(err)
		}
		progStart, progFin := d.LastStart(), d.LastFinish()
		issue := progStart + (progFin-progStart)/2
		d.AdvanceTo(issue)
		if _, _, err := d.Read(readable); err != nil {
			t.Fatal(err)
		}
		return d.LastStart(), progFin
	}

	if start, progFin := run(SuspendErase, true); start != progFin {
		t.Errorf("SuspendErase: read of an in-flight program started at %v, want queued at %v", start, progFin)
	}
	if start, progFin := run(SuspendFull, true); start >= progFin {
		t.Errorf("SuspendFull: read started at %v, want preemption before program finish %v", start, progFin)
	}
	if start, progFin := run(SuspendOff, false); start != progFin {
		t.Errorf("SuspendOff: read started at %v, want queued at %v", start, progFin)
	}
}

// TestSuspendNotBeneficialSkipped: when paying the suspend cost would
// not start the read before the in-flight erase finishes anyway, the
// device does not preempt — suspension must never make a read slower.
func TestSuspendNotBeneficialSkipped(t *testing.T) {
	d := MustNewDevice(testConfig())
	d.SetSuspend(SuspendErase, time.Hour, time.Microsecond)
	eraseStart, eraseFin, readable := suspendSetup(t, d)
	d.AdvanceTo(eraseStart + (eraseFin-eraseStart)/2)
	if _, _, err := d.Read(readable); err != nil {
		t.Fatal(err)
	}
	if got := d.LastStart(); got != eraseFin {
		t.Errorf("uneconomic suspension: read started at %v, want queued at erase finish %v", got, eraseFin)
	}
	if got := d.Suspends(); got != 0 {
		t.Errorf("suspends = %d, want 0", got)
	}
}

// TestSuspendCommittedDeferredErase: an erase that entered the timeline
// through the deadline sweep is just as suspendable as a directly
// booked one — the suspend machinery builds on the same booking rule
// (bookDeferred records the in-flight interval).
func TestSuspendCommittedDeferredErase(t *testing.T) {
	const sc, rc = 25 * time.Microsecond, 25 * time.Microsecond
	d := MustNewDevice(testConfig())
	d.SetSuspend(SuspendErase, sc, rc)
	readable := d.cfg.PPNForBlockPage(0, 0)
	if _, err := d.Program(readable, OOB{LPN: 1}); err != nil {
		t.Fatal(err)
	}
	// Parked at now = 0 with the deadline at the end of the program, so
	// the erase is due the moment the chip frees.
	busy := d.ChipFree(0)
	d.SetEraseDeferral(busy)
	if _, err := d.EraseForce(1); err != nil {
		t.Fatal(err)
	}
	if parkedErases(d) != 1 {
		t.Fatal("setup: erase was not parked")
	}
	eraseFin := busy + d.cfg.EraseLatency
	issue := busy + d.cfg.EraseLatency/2
	d.AdvanceTo(issue)
	if parkedErases(d) != 0 || d.ChipFree(0) != eraseFin {
		t.Fatalf("AdvanceTo past the deadline left %d parked, chip free %v; want 0 and %v",
			parkedErases(d), d.ChipFree(0), eraseFin)
	}
	if _, _, err := d.Read(readable); err != nil {
		t.Fatal(err)
	}
	if got, want := d.LastStart(), issue+sc; got != want {
		t.Errorf("read of a deadline-committed erase started at %v, want suspension at %v", got, want)
	}
	if got := d.Suspends(); got != 1 {
		t.Errorf("suspends = %d, want 1", got)
	}
}

// TestSuspendByNameRoundTrip: every listed policy name resolves to a
// policy whose String round-trips, the empty string means off, and an
// unknown name is rejected.
func TestSuspendByNameRoundTrip(t *testing.T) {
	for _, name := range []string{"off", "erase", "full"} {
		p, err := SuspendByName(name)
		if err != nil {
			t.Errorf("SuspendByName(%q): %v", name, err)
			continue
		}
		if p.String() != name {
			t.Errorf("SuspendByName(%q).String() = %q", name, p.String())
		}
	}
	if p, err := SuspendByName(""); err != nil || p != SuspendOff {
		t.Errorf("SuspendByName(\"\") = %v, %v; want off", p, err)
	}
	if _, err := SuspendByName("preemptive"); err == nil {
		t.Error("unknown suspend name accepted")
	}
}

// TestSetEraseDeferralDisableFlushes is the regression test for the
// stranded-erase bug: disabling deferral while erases are still parked
// must flush them into the timeline — with no window there is no
// deadline left to commit them, and they previously sat invisible until
// some later op happened to touch their chip.
func TestSetEraseDeferralDisableFlushes(t *testing.T) {
	d, cfg := deferTestDevice(t, time.Hour)
	busy := d.ChipFree(0)
	if _, err := d.EraseForce(0); err != nil {
		t.Fatal(err)
	}
	if parkedErases(d) != 1 {
		t.Fatal("setup: erase was not parked")
	}
	d.SetEraseDeferral(0)
	if got := parkedErases(d); got != 0 {
		t.Errorf("deferred erases = %d after disable, want 0 (flushed)", got)
	}
	if got, want := d.ChipFree(0), busy+cfg.EraseLatency; got != want {
		t.Errorf("chip free %v after disable, want flushed erase end %v", got, want)
	}
	if got := d.deferWindow; got != 0 {
		t.Errorf("deferral window = %v after disable, want 0", got)
	}
	// Disabled means head-of-line again: the next erase books directly.
	if _, err := d.EraseForce(0); err != nil {
		t.Fatal(err)
	}
	if got := parkedErases(d); got != 0 {
		t.Errorf("deferred erases = %d after disabled erase, want 0 (booked directly)", got)
	}
}

// TestBurstZeroTimeValid is the regression test for the burst-sentinel
// bug: a burst whose first operation legitimately starts (or even
// finishes, with zero-cost ops) at t=0 must report its real window, and
// only a burst that scheduled nothing reports zeros.
func TestBurstZeroTimeValid(t *testing.T) {
	cfg := testConfig()
	cfg.ProgramLatency = 0
	cfg.TransferBytesPerSec = 0 // zero-cost programs: start == finish == 0
	d := MustNewDevice(cfg)
	d.BeginBurst()
	if d.BurstOps() != 0 || d.BurstStart() != 0 || d.BurstFinish() != 0 {
		t.Fatalf("empty burst reports ops=%d start=%v fin=%v, want zeros",
			d.BurstOps(), d.BurstStart(), d.BurstFinish())
	}
	cost, err := d.Program(cfg.PPNForBlockPage(0, 0), OOB{LPN: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Fatalf("setup: program cost %v, want 0", cost)
	}
	if got := d.BurstOps(); got != 1 {
		t.Errorf("burst ops = %d, want 1", got)
	}
	if got := d.BurstStart(); got != 0 {
		t.Errorf("burst start = %v, want the real t=0", got)
	}
	if got := d.BurstFinish(); got != 0 {
		t.Errorf("burst finish = %v, want the real t=0", got)
	}
	// A fresh burst invalidates the window again.
	d.BeginBurst()
	if d.BurstOps() != 0 || d.BurstStart() != 0 || d.BurstFinish() != 0 {
		t.Errorf("reset burst reports ops=%d start=%v fin=%v, want zeros",
			d.BurstOps(), d.BurstStart(), d.BurstFinish())
	}
}

// TestDeferredCommitPathEquivalence is the randomized property test of
// the deadline sweep: over arbitrary interleavings of programs, reads,
// erases, dependency floors and clock advances, on one or two planes
// with or without erase suspension, a device whose clock is advanced in
// small steps and one advanced straight to each op's issue time must
// book every op identically and end with identical timelines. Nothing
// books between two ops, so when the sweep runs cannot matter — only
// that it has run before the next op.
func TestDeferredCommitPathEquivalence(t *testing.T) {
	swept := 0 // erases the stepped clock committed at their deadline
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		cfg := twoChipConfig()
		cfg.Planes = 1 + rng.Intn(2)
		window := time.Duration(rng.Intn(20)+1) * time.Millisecond
		reorder := time.Duration(rng.Intn(2)) * cfg.EraseLatency
		steps, direct := MustNewDevice(cfg), MustNewDevice(cfg)
		for _, d := range []*Device{steps, direct} {
			d.SetEraseDeferral(window)
			d.SetReorderWindow(reorder)
			if trial%2 == 1 {
				d.SetSuspend(SuspendErase, 25*time.Microsecond, 25*time.Microsecond)
			}
		}

		// both runs one op on the two devices, advancing direct to the
		// issue time first, and requires identical bookings.
		var now time.Duration
		both := func(step int, op func(*Device) error) {
			t.Helper()
			direct.AdvanceTo(now)
			for _, d := range []*Device{steps, direct} {
				if err := op(d); err != nil {
					t.Fatal(err)
				}
			}
			if steps.LastStart() != direct.LastStart() || steps.LastFinish() != direct.LastFinish() ||
				parkedErases(steps) != parkedErases(direct) {
				t.Fatalf("trial %d step %d: stepped clock booked [%v, %v] with %d parked, direct [%v, %v] with %d",
					trial, step, steps.LastStart(), steps.LastFinish(), parkedErases(steps),
					direct.LastStart(), direct.LastFinish(), parkedErases(direct))
			}
		}

		nextPage := make([]int, cfg.TotalBlocks())
		for step := 0; step < 200; step++ {
			switch rng.Intn(6) {
			case 0, 1: // program a random block with room
				b := BlockID(rng.Intn(cfg.TotalBlocks()))
				if nextPage[b] >= cfg.PagesPerBlock {
					continue
				}
				ppn := cfg.PPNForBlockPage(b, nextPage[b])
				nextPage[b]++
				both(step, func(d *Device) error {
					_, err := d.Program(ppn, OOB{LPN: uint64(step)})
					return err
				})
			case 2: // read a programmed page
				b := BlockID(rng.Intn(cfg.TotalBlocks()))
				if nextPage[b] == 0 {
					continue
				}
				ppn := cfg.PPNForBlockPage(b, rng.Intn(nextPage[b]))
				both(step, func(d *Device) error {
					_, _, err := d.Read(ppn)
					return err
				})
			case 3: // erase a random block, sometimes behind a floor
				b := BlockID(rng.Intn(cfg.TotalBlocks()))
				floor := time.Duration(-1)
				if rng.Intn(2) == 0 {
					floor = now + time.Duration(rng.Intn(2000))*time.Microsecond
				}
				both(step, func(d *Device) error {
					if floor >= 0 {
						d.After(floor)
					}
					_, err := d.EraseForce(b)
					return err
				})
				nextPage[b] = 0
			default: // advance the host clock into (or past) idle gaps
				target := now + time.Duration(rng.Intn(4000))*time.Microsecond
				for now < target {
					now += time.Duration(1+rng.Intn(500)) * time.Microsecond
					now = min(now, target)
					parked := parkedErases(steps)
					steps.AdvanceTo(now)
					swept += parked - parkedErases(steps)
				}
			}
		}
		steps.FlushDeferredErases()
		direct.FlushDeferredErases()
		for chip := 0; chip < cfg.Chips; chip++ {
			if steps.ChipFree(chip) != direct.ChipFree(chip) {
				t.Fatalf("trial %d: chip %d timelines diverge: stepped %v, direct %v",
					trial, chip, steps.ChipFree(chip), direct.ChipFree(chip))
			}
		}
		if steps.Makespan() != direct.Makespan() || steps.Suspends() != direct.Suspends() {
			t.Fatalf("trial %d: makespan %v != %v or suspends %d != %d",
				trial, steps.Makespan(), direct.Makespan(), steps.Suspends(), direct.Suspends())
		}
	}
	if swept == 0 {
		t.Fatal("no clock advance committed a parked erase: the deadline sweep was never exercised")
	}
}

// TestSuspendsOfCountsAndFlagsRetire: every suspension is charged to
// the preempted block (suspendCnt), and once a block's erases have been
// preempted SuspendRetireThreshold times under an active reliability
// model it lands in the retire queue: suspended erases on nearly-dead
// blocks retire early. Without the reliability model the count has no
// effect and nothing is flagged.
func TestSuspendsOfCountsAndFlagsRetire(t *testing.T) {
	const sc, rc = 25 * time.Microsecond, 25 * time.Microsecond
	run := func(withModel bool) *Device {
		d := MustNewDevice(testConfig())
		d.SetSuspend(SuspendErase, sc, rc)
		if withModel {
			// A vanishingly small error rate under a huge ECC budget:
			// the model is active (so flagging works) but never injects
			// a retry into this test's reads.
			quiet := ReliabilityConfig{
				Enabled:       true,
				BaseBER:       1e-12,
				ECCCorrectBER: 1,
				RetryStepBER:  1,
				MaxRetries:    1,
			}
			if err := d.SetReliability(quiet, 1); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < SuspendRetireThreshold; i++ {
			readable := d.cfg.PPNForBlockPage(0, i)
			if _, err := d.Program(readable, OOB{LPN: uint64(i) + 1}); err != nil {
				t.Fatal(err)
			}
			if _, err := d.EraseForce(1); err != nil {
				t.Fatal(err)
			}
			eraseStart, eraseFin := d.LastStart(), d.LastFinish()
			d.AdvanceTo(eraseStart + (eraseFin-eraseStart)/2)
			if _, _, err := d.Read(readable); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}

	d := run(true)
	if got := d.Suspends(); got != SuspendRetireThreshold {
		t.Fatalf("suspends = %d, want %d", got, SuspendRetireThreshold)
	}
	if got := d.suspendCnt[1]; got != SuspendRetireThreshold {
		t.Errorf("suspensions of block 1 = %d, want %d", got, SuspendRetireThreshold)
	}
	if got := d.suspendCnt[0]; got != 0 {
		t.Errorf("suspensions of block 0 = %d, want 0 (block 0 was never preempted)", got)
	}
	if !d.RetireRecommended(1) {
		t.Error("block 1 not flagged for retirement after repeated erase suspensions")
	}
	if b, ok := d.NextRetireCandidate(); !ok || b != 1 {
		t.Errorf("NextRetireCandidate = (%d, %v), want (1, true)", b, ok)
	}

	diag := run(false)
	if got := diag.suspendCnt[1]; got != SuspendRetireThreshold {
		t.Errorf("model off: suspensions of block 1 = %d, want %d", got, SuspendRetireThreshold)
	}
	if diag.RetireRecommended(1) {
		t.Error("model off: nothing should be flagged for retirement")
	}
}

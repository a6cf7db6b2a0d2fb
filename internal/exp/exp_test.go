package exp

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"netfence"
	"netfence/internal/core"
	"netfence/internal/sim"
)

// The tests in this file assert the SHAPE of every reproduced figure at
// tiny scale: who wins, by roughly what factor, where the crossovers
// fall. Absolute values belong to EXPERIMENTS.md, regenerated by
// cmd/netfence-sim at larger scales.

// skipIfShort gates the multi-second simulation tests so that
// `go test -short ./...` stays fast for CI and inner-loop development.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full figure simulation; skipped with -short")
	}
}

// tinyTables memoizes each runner's Tiny table, so the golden test and
// the shape tests that read whole tables share one run per runner.
var tinyTables = map[string]Result{}

// tinyRun returns runner name's result at Tiny, running it at most once
// per test binary.
func tinyRun(t *testing.T, name string) Result {
	t.Helper()
	if res, ok := tinyTables[name]; ok {
		return res
	}
	r, err := RunnerByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run(Tiny)
	tinyTables[name] = res
	return res
}

// TestFigureRowsGolden pins every simulating runner's Tiny table byte
// for byte (fig7 is host-timed, so it is left out). Tiny runs are
// deterministic; a diff here means a figure changed. Run with
// NETFENCE_REGEN_GOLDEN=1 to rewrite the fixture after an intentional
// behavior change.
func TestFigureRowsGolden(t *testing.T) {
	skipIfShort(t)
	const path = "testdata/tiny_rows.golden"
	var b strings.Builder
	for _, r := range Runners() {
		if r.Name == "fig7" {
			continue
		}
		res := tinyRun(t, r.Name)
		b.WriteString(res.Table())
		b.WriteByte('\n')
	}
	got := b.String()
	if os.Getenv("NETFENCE_REGEN_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(raw); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("figure rows diverge from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"tiny", "small", "paper"} {
		sc, err := ScaleByName(name)
		if err != nil || sc.Name != name {
			t.Fatalf("ScaleByName(%q) = %v, %v", name, sc.Name, err)
		}
	}
	if sc, err := ScaleByName(""); err != nil || sc.Name != "small" {
		t.Fatal("empty scale should default to small")
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Fatal("bogus scale accepted")
	}
}

func TestScaleArithmetic(t *testing.T) {
	// The paper's scaling trick: per-sender fair share must equal
	// 10 Gbps / label regardless of the real population.
	for _, label := range []int{25_000, 50_000, 100_000, 200_000} {
		c := Tiny.BottleneckBps(label)
		share := c / int64(Tiny.Senders)
		if share != Tiny.FairShareBps(label) {
			t.Fatalf("label %d: share %d != %d", label, share, Tiny.FairShareBps(label))
		}
	}
	// 25K senders on 10 Gbps = 400 kbps each, the paper's upper target.
	if Tiny.FairShareBps(25_000) != 400_000 {
		t.Fatalf("25K fair share = %d", Tiny.FairShareBps(25_000))
	}
}

func TestStrategicRequestLevel(t *testing.T) {
	cfg := core.DefaultConfig()
	// The paper's 25K-sender case: 990 attackers, 400 Mbps bottleneck,
	// 20 Mbps request channel. Aggregate at level k is
	// 990 * 1000/2^(k-1) * 736 bits; saturation holds through level 6.
	if got := StrategicRequestLevel(990, 400_000_000, cfg); got != 6 {
		t.Fatalf("strategic level = %d, want 6", got)
	}
	// More attackers can afford higher levels.
	if got := StrategicRequestLevel(100_000, 400_000_000, cfg); got <= 6 {
		t.Fatalf("bigger botnet should flood higher: %d", got)
	}
	// A single attacker cannot saturate anything: floor at level 1.
	if got := StrategicRequestLevel(1, 400_000_000, cfg); got != 1 {
		t.Fatalf("lone attacker level = %d", got)
	}
}

func TestResultTable(t *testing.T) {
	r := Result{Name: "X", Title: "t", Columns: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.Note("hello %d", 7)
	out := r.Table()
	for _, want := range []string{"X — t", "a", "bb", "1", "2", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestFig7Runs(t *testing.T) {
	skipIfShort(t)
	res := Fig7(Tiny)
	if len(res.Rows) != 7 {
		t.Fatalf("fig7 rows = %d", len(res.Rows))
	}
	// Measured access-router attack-path cost must be nonzero and sane
	// (the paper's 3 GHz Xeon took 1267 ns; anything under 20 us passes).
	last := res.Rows[6]
	ns, err := strconv.Atoi(last[3])
	if err != nil || ns <= 0 || ns > 20_000 {
		t.Fatalf("regular/access/attack measured %q ns", last[3])
	}
}

func TestHeaderSizesMatchPaper(t *testing.T) {
	res := HeaderSizes(Tiny)
	// Worst case (mon + returned mon) is 28 bytes, §6.1.
	found := false
	for _, row := range res.Rows {
		if row[0] == "mon L-up" && row[1] == "mon" {
			if row[2] != "28" {
				t.Fatalf("worst-case header = %s bytes, want 28", row[2])
			}
			found = true
		}
	}
	if !found {
		t.Fatal("worst-case row missing")
	}
}

func TestFig8Shape(t *testing.T) {
	skipIfShort(t)
	nf25 := fig8Cell(Tiny, 25_000, SysNetFence)
	fq25 := fig8Cell(Tiny, 25_000, SysFQ)
	fq200 := fig8Cell(Tiny, 200_000, SysFQ)
	nf200 := fig8Cell(Tiny, 200_000, SysNetFence)
	st200 := fig8Cell(Tiny, 200_000, SysStopIt)

	// Completion is total for the capability-style systems (paper: 100%
	// everywhere; FQ at the largest scale may abort a few transfers at
	// tiny populations).
	for name, f := range map[string]netfence.FCTSummary{
		"NetFence25": nf25, "NetFence200": nf200, "StopIt200": st200,
	} {
		if f.Completion < 0.99 {
			t.Fatalf("%s completion = %f", name, f.Completion)
		}
	}
	// NetFence pays the ~1 s request backoff but stays flat with scale.
	if m := nf25.MeanSec; m < 0.5 || m > 4 {
		t.Fatalf("NetFence@25K mean FCT = %vs", m)
	}
	if nf200.MeanSec > 3*nf25.MeanSec+2 {
		t.Fatalf("NetFence FCT not flat: %vs -> %vs", nf25.MeanSec, nf200.MeanSec)
	}
	// FQ grows with the attacker population (paper: linear growth) and
	// loses to NetFence at the large end.
	if fq200.MeanSec <= fq25.MeanSec {
		t.Fatalf("FQ FCT did not grow: %vs -> %vs", fq25.MeanSec, fq200.MeanSec)
	}
	if fq200.MeanSec <= nf200.MeanSec {
		t.Fatalf("FQ@200K (%vs) should exceed NetFence@200K (%vs)", fq200.MeanSec, nf200.MeanSec)
	}
	// StopIt filters the flood at the source: fastest of all.
	if st200.MeanSec > nf200.MeanSec {
		t.Fatalf("StopIt (%vs) should beat NetFence (%vs)", st200.MeanSec, nf200.MeanSec)
	}
}

func TestFig9aShape(t *testing.T) {
	skipIfShort(t)
	nf := fig9Cell(Tiny, 25_000, SysNetFence, false)
	tva := fig9Cell(Tiny, 25_000, SysTVA, false)
	fq := fig9Cell(Tiny, 25_000, SysFQ, false)
	st := fig9Cell(Tiny, 25_000, SysStopIt, false)

	// NetFence: ratio near 1 (paper: ~1), link utilization above 90%.
	if nf.ratio < 0.7 || nf.ratio > 1.3 {
		t.Fatalf("NetFence ratio = %.2f", nf.ratio)
	}
	if nf.util < 0.9 {
		t.Fatalf("NetFence utilization = %.2f, paper reports >90%%", nf.util)
	}
	if nf.jain < 0.9 {
		t.Fatalf("NetFence Jain index = %.2f", nf.jain)
	}
	// FQ and StopIt: per-sender fairness, slightly under 1.
	for name, c := range map[string]fig9Out{"FQ": fq, "StopIt": st} {
		if c.ratio < 0.5 || c.ratio > 1.2 {
			t.Fatalf("%s ratio = %.2f", name, c.ratio)
		}
	}
	// TVA+: a small number of colluders slashes the victim's share; the
	// paper's 9-colluder setup gives attackers several times the
	// legitimate throughput.
	if tva.ratio > 0.5 {
		t.Fatalf("TVA+ ratio = %.2f, want far below 1", tva.ratio)
	}
	if tva.ratio >= nf.ratio {
		t.Fatal("TVA+ should be the worst system under collusion")
	}
}

func TestFig9bShape(t *testing.T) {
	skipIfShort(t)
	// Web-like demand cannot fill a 400 kbps share: ratio below 1 at the
	// 25K label, climbing at 200K where the share is 50 kbps.
	nfBig := fig9Cell(Tiny, 25_000, SysNetFence, true)
	nfSmall := fig9Cell(Tiny, 200_000, SysNetFence, true)
	if nfBig.ratio > 0.9 {
		t.Fatalf("web ratio at 25K = %.2f, want well under 1 (demand-limited)", nfBig.ratio)
	}
	if nfSmall.ratio < nfBig.ratio {
		t.Fatalf("web ratio should climb with senders: %.2f -> %.2f", nfBig.ratio, nfSmall.ratio)
	}
}

func TestFig10Shape(t *testing.T) {
	skipIfShort(t)
	l160 := int64(2*Tiny.PLGroup) * 80_000
	l240 := l160 * 3 / 2
	const fair = 80_000.0

	core160240 := fig10Cell(Tiny, ModeCore, l160, l240)
	// Core design: Group A under-achieves its fair share when L1 < L2,
	// with users below attackers (the §4.3.5 limiter-switching penalty).
	if core160240.aUser > 0.8*fair {
		t.Fatalf("core A-user = %.0f, expected well under fair %v", core160240.aUser, fair)
	}
	if core160240.aUser >= core160240.aAtk {
		t.Fatalf("core: A-user %.0f should trail A-attacker %.0f", core160240.aUser, core160240.aAtk)
	}
	// Other groups are unaffected: at or above their shares.
	if core160240.bUser < fair || core160240.cUser < 0.8*fair {
		t.Fatalf("B/C users suffered: B=%.0f C=%.0f", core160240.bUser, core160240.cUser)
	}

	// Both Appendix B extensions lift Group A users (Figures 13, 14).
	multi := fig10Cell(Tiny, ModeMultiFB, l160, l240)
	infer := fig10Cell(Tiny, ModeInfer, l160, l240)
	if multi.aUser <= core160240.aUser {
		t.Fatalf("B.1 did not improve A-user: %.0f vs core %.0f", multi.aUser, core160240.aUser)
	}
	if infer.aUser <= core160240.aUser {
		t.Fatalf("B.2 did not improve A-user: %.0f vs core %.0f", infer.aUser, core160240.aUser)
	}
}

func TestFig11Shape(t *testing.T) {
	short := fig11Cell(Tiny, 500*sim.Millisecond, 1500*sim.Millisecond)
	long := fig11Cell(Tiny, 500*sim.Millisecond, 50*sim.Second)
	// Users keep at least ~(rho-discounted) always-on fair share of
	// 100 kbps under the most aggressive shape...
	if short < 70_000 {
		t.Fatalf("user throughput %.0f under 0.5s/1.5s on-off", short)
	}
	// ...and recover bandwidth as the off period grows.
	if long <= short {
		t.Fatalf("longer off period should help: %.0f -> %.0f", short, long)
	}
}

func TestTheoremHolds(t *testing.T) {
	skipIfShort(t)
	res := tinyRun(t, "theorem")
	for _, row := range res.Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("fair-share bound violated: %v", row)
		}
	}
}

// TestStrategicShape asserts the §6.3 adaptive-adversary claim at tiny
// scale: NetFence clears the Theorem-1 goodput floor under EVERY
// registered strategy, while at least one baseline falls below it under
// at least one strategy (TVA+ against colluder floods, per the paper).
func TestStrategicShape(t *testing.T) {
	skipIfShort(t)
	res := tinyRun(t, "strategic")
	holds := func(row []string) bool { return row[len(row)-1] == "true" }
	strategies := map[string]bool{}
	baselineBroke := false
	for _, row := range res.Rows {
		strategy, system := row[0], row[1]
		if system == string(SysNetFence) {
			strategies[strategy] = true
			if !holds(row) {
				t.Fatalf("NetFence below the Theorem-1 floor under %q: %v", strategy, row)
			}
		} else if !holds(row) {
			baselineBroke = true
		}
	}
	for _, want := range strategicLineup {
		if !strategies[want] {
			t.Fatalf("strategy %q missing from the table", want)
		}
	}
	if !baselineBroke {
		t.Fatal("no baseline fell below the floor under any strategy — the floor is vacuous")
	}
}

func TestLocalizeShape(t *testing.T) {
	honest, _, engaged := localizeCell(Tiny, true)
	if !engaged {
		t.Fatal("fallback never engaged")
	}
	// Honest AS owns half of the 2 Mbps bottleneck; demand at least 40%.
	if honest < 400_000 {
		t.Fatalf("honest user = %.0f bps under compromised AS", honest)
	}
}

func TestAblateHysteresisShape(t *testing.T) {
	atk0, _, fair := ablateHystCell(Tiny, 0)
	atk2, _, _ := ablateHystCell(Tiny, 2)
	// Without hysteresis the burst-and-harvest attacker beats its fair
	// share; the paper's 2x Ilim window pins it at or below.
	if atk0 <= fair {
		t.Fatalf("h=0 attacker %.0f did not beat fair %.0f (attack too weak?)", atk0, fair)
	}
	if atk2 > fair*1.05 {
		t.Fatalf("h=2 attacker %.0f exceeds fair %.0f", atk2, fair)
	}
	if atk2 >= atk0 {
		t.Fatalf("hysteresis did not reduce the attacker: %.0f -> %.0f", atk0, atk2)
	}
}

func TestAblateInitRateShape(t *testing.T) {
	uLow, aLow := ablateInitCell(Tiny, 12_500)
	uHigh, aHigh := ablateInitCell(Tiny, 400_000)
	for name, v := range map[string]float64{"uLow": uLow, "aLow": aLow, "uHigh": uHigh, "aHigh": aHigh} {
		// Fair share is 200 kbps; all outcomes within a 2x band.
		if v < 100_000 || v > 400_000 {
			t.Fatalf("%s = %.0f, outside the convergence band", name, v)
		}
	}
}

func TestDeployShape(t *testing.T) {
	// Not gated on -short: the incremental-deployment experiment is the
	// PR's acceptance path, restricted here to NetFence (5 cells, a few
	// seconds). The full lineup runs in TestDeployRunnerFull.
	label := Tiny.Labels[0]
	none := fig9CellDeploy(Tiny, label, SysNetFence, false, 0)
	half := fig9CellDeploy(Tiny, label, SysNetFence, false, 0.5)
	full := fig9CellDeploy(Tiny, label, SysNetFence, false, 1)

	// Undeployed: the 3x flood crushes the users.
	if none.ratio > 0.2 {
		t.Fatalf("ratio at 0%% deployment = %.2f, want near zero", none.ratio)
	}
	// Deployment pays: every deployed AS improves the ratio.
	if !(none.ratio < half.ratio && half.ratio < full.ratio+1) {
		t.Fatalf("ratio not improving with deployment: %.2f -> %.2f -> %.2f",
			none.ratio, half.ratio, full.ratio)
	}
	if half.ratio < 2*none.ratio {
		t.Fatalf("half deployment barely helped: %.2f -> %.2f", none.ratio, half.ratio)
	}
	// Full deployment converges to the paper's ~1 fair-share parity.
	if full.ratio < 0.7 || full.ratio > 1.3 {
		t.Fatalf("ratio at full deployment = %.2f, want ~1", full.ratio)
	}
}

func TestDeployRunnerFull(t *testing.T) {
	skipIfShort(t)
	res := tinyRun(t, "deploy")
	if len(res.Rows) != len(DeployFractions)*len(deployCompared) {
		t.Fatalf("deploy rows = %d", len(res.Rows))
	}
	// The Scale.Systems restriction must hold here like the figures.
	sc := Tiny
	sc.Systems = []string{"fq"}
	if rows := Deploy(sc).Rows; len(rows) != len(DeployFractions) || rows[0][1] != string(SysFQ) {
		t.Fatalf("Systems restriction ignored: %v", rows)
	}
}

func TestRunnersResolvable(t *testing.T) {
	for _, name := range []string{"fig7", "fig8", "fig9a", "fig9b", "fig10",
		"fig11", "fig13", "fig14", "theorem", "localize", "header",
		"ablate-hysteresis", "ablate-initrate", "ablate-bucket", "quota"} {
		if _, err := RunnerByName(name); err != nil {
			t.Fatalf("experiment %q missing from the runner list", name)
		}
	}
	for _, r := range Runners() {
		got, err := RunnerByName(r.Name)
		if err != nil || got.Name != r.Name {
			t.Fatalf("runner %q unresolvable", r.Name)
		}
	}
	if _, err := RunnerByName("nope"); err == nil {
		t.Fatal("bogus runner resolved")
	}
}

func TestAblateBucketShape(t *testing.T) {
	// The §4.3.3 design choice: a token-bucket limiter banks credit that
	// synchronized attackers unleash as line-rate bursts; the leaky
	// queue's output can never exceed the limit. The user must fare
	// dramatically worse under the token bucket.
	leakyUser, _, _ := ablateBucketCell(Tiny, false)
	tokenUser, _, _ := ablateBucketCell(Tiny, true)
	if tokenUser >= leakyUser/2 {
		t.Fatalf("token bucket should gut the user: leaky=%.0f token=%.0f", leakyUser, tokenUser)
	}
}

func TestAblateQuotaShape(t *testing.T) {
	// §7 congestion quota: a persistent flooder is throttled once its
	// congestion-traffic budget is spent; the demand-limited user's
	// transfers do not get slower.
	fctOff, atkOff, _ := ablateQuotaCell(Tiny, 0)
	fctOn, atkOn, drops := ablateQuotaCell(Tiny, 250_000)
	if drops == 0 {
		t.Fatal("quota never engaged")
	}
	if atkOn >= atkOff {
		t.Fatalf("quota did not throttle the flooder: %.0f -> %.0f", atkOff, atkOn)
	}
	if fctOn > fctOff+sim.Second {
		t.Fatalf("quota hurt the demand-limited user: %v -> %v", fctOff, fctOn)
	}
}

// TestWorstCaseShape asserts the adversarial-search claim at tiny
// scale: the annealed attack is strictly worse for TVA+ than every
// hand-written strategy (the search genuinely extends the lineup),
// while NetFence still clears the Theorem-1 floor at the searched
// optimum.
func TestWorstCaseShape(t *testing.T) {
	skipIfShort(t)
	sc := Tiny
	sc.Systems = []string{"netfence", "tva"}
	res := WorstCase(sc)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	kbps := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad kbps cell %q", s)
		}
		return v
	}
	for _, row := range res.Rows {
		system, hand, searched, holds := row[0], kbps(row[2]), kbps(row[4]), row[len(row)-1]
		switch system {
		case string(SysNetFence):
			if holds != "true" {
				t.Fatalf("NetFence below the floor at the searched optimum: %v", row)
			}
		case string(SysTVA):
			if searched >= hand {
				t.Fatalf("searched attack (%v kbps) not strictly worse for TVA+ than the hand-written worst (%v kbps): %v",
					searched, hand, row)
			}
		}
	}
}

// TestWorstCaseDeterminism pins that the searched table is a pure
// function of the scale: two runs render byte-identically.
func TestWorstCaseDeterminism(t *testing.T) {
	skipIfShort(t)
	sc := Tiny
	sc.Systems = []string{"tva"}
	sc.Senders = 8
	sc.Duration = 40 * sim.Second
	sc.Warmup = 20 * sim.Second
	ra, rb := WorstCase(sc), WorstCase(sc)
	if a, b := ra.Table(), rb.Table(); a != b {
		t.Fatalf("worstcase diverged:\n%s\n%s", a, b)
	}
}

package energy

import (
	"math"
	"testing"
	"time"
)

func TestRadioD0(t *testing.T) {
	m := DefaultRadioModel()
	d0 := m.D0()
	if want := math.Sqrt(DefaultEFs / DefaultEMp); d0 != want {
		t.Fatalf("D0 = %v, want sqrt(EFs/EMp) = %v", d0, want)
	}
	// The crossover must sit inside the default 100 m sensor range so real
	// deployments exercise both propagation regimes.
	if d0 <= 0 || d0 >= 100 {
		t.Fatalf("D0 = %v m, want inside (0, 100)", d0)
	}
	if got := (RadioModel{EElec: DefaultEElec, EFs: DefaultEFs}).D0(); !math.IsInf(got, 1) {
		t.Fatalf("D0 with EMp=0 = %v, want +Inf", got)
	}
}

// TestRadioContinuityAtD0 pins the regime handoff: the free-space and
// multipath amplifier terms agree at d₀ by construction, and stepping one
// ulp across the crossover moves the price by at most a few ulps.
func TestRadioContinuityAtD0(t *testing.T) {
	m := DefaultRadioModel()
	d0 := m.D0()
	b := float64(DefaultPacketBits)
	free := m.EElec*b + m.EFs*b*d0*d0
	multi := m.EElec*b + m.EMp*b*d0*d0*d0*d0
	if rel := math.Abs(free-multi) / free; rel > 1e-12 {
		t.Fatalf("amplifier terms disagree at d0: free %v vs multipath %v (rel %v)", free, multi, rel)
	}
	below := m.TxCost(DefaultPacketBits, math.Nextafter(d0, 0))
	at := m.TxCost(DefaultPacketBits, d0)
	above := m.TxCost(DefaultPacketBits, math.Nextafter(d0, math.Inf(1)))
	if rel := math.Abs(below-at) / at; rel > 1e-12 {
		t.Fatalf("price jumps entering d0: %v -> %v (rel %v)", below, at, rel)
	}
	if rel := math.Abs(above-at) / at; rel > 1e-12 {
		t.Fatalf("price jumps leaving d0: %v -> %v (rel %v)", at, above, rel)
	}
}

// TestRadioMonotonicity checks the model's two growth axes across both
// regimes: transmit price never decreases with distance, strictly grows
// with packet size, and receive price ignores distance entirely.
func TestRadioMonotonicity(t *testing.T) {
	m := DefaultRadioModel()
	prev := -1.0
	for d := 0.0; d <= 150; d += 0.5 {
		tx := m.TxCost(DefaultPacketBits, d)
		if tx < prev {
			t.Fatalf("TxCost decreased: %v m prices %v after %v", d, tx, prev)
		}
		if tx < m.EElec*float64(DefaultPacketBits) {
			t.Fatalf("TxCost below electronics floor at %v m: %v", d, tx)
		}
		prev = tx
		if rx := m.RxCost(DefaultPacketBits, d); rx != m.RxCost(DefaultPacketBits, 0) {
			t.Fatalf("RxCost depends on distance at %v m", d)
		}
	}
	for _, d := range []float64{0, 50, 87, 100, 150} {
		small, large := m.TxCost(1024, d), m.TxCost(8192, d)
		if small >= large {
			t.Fatalf("TxCost not increasing in bits at %v m: %v vs %v", d, small, large)
		}
		if m.RxCost(1024, d) >= m.RxCost(8192, d) {
			t.Fatalf("RxCost not increasing in bits at %v m", d)
		}
	}
}

func TestHarvestingDefaults(t *testing.T) {
	var h HarvestingModel
	if got := h.EffectivePeriod(); got != DefaultHarvestPeriod {
		t.Errorf("EffectivePeriod = %v, want %v", got, DefaultHarvestPeriod)
	}
	if got, want := h.IncomePerPeriod(), DefaultChargeEfficiency*DefaultHarvestRate*DefaultHarvestPeriod.Seconds(); got != want {
		t.Errorf("IncomePerPeriod = %v, want %v", got, want)
	}
	if got := h.EffectiveSleepFraction(); got != DefaultSleepFraction {
		t.Errorf("EffectiveSleepFraction = %v, want %v", got, DefaultSleepFraction)
	}
	// Negative disables sleep; values at or above 1 clamp below 1.
	if got := (HarvestingModel{SleepFraction: -1}).EffectiveSleepFraction(); got != 0 {
		t.Errorf("negative SleepFraction → %v, want 0", got)
	}
	if got := (HarvestingModel{SleepFraction: 2}).EffectiveSleepFraction(); got < DefaultSleepFraction || got >= 1 {
		t.Errorf("oversized SleepFraction → %v, want in [%v, 1)", got, DefaultSleepFraction)
	}
	// A nil Base prices like the paper's constants.
	if tx := h.TxCost(DefaultPacketBits, 80); tx != DefaultTxCost {
		t.Errorf("nil-base TxCost = %v, want %v", tx, DefaultTxCost)
	}
	if rx := h.RxCost(DefaultPacketBits, 80); rx != DefaultRxCost {
		t.Errorf("nil-base RxCost = %v, want %v", rx, DefaultRxCost)
	}
	if tx, rx, ok := h.FlatCosts(DefaultPacketBits); !ok || tx != DefaultTxCost || rx != DefaultRxCost {
		t.Errorf("nil-base FlatCosts = %v, %v, %v", tx, rx, ok)
	}
	// A distance-dependent base disables flat reconciliation.
	if _, _, ok := (HarvestingModel{Base: DefaultRadioModel()}).FlatCosts(DefaultPacketBits); ok {
		t.Error("radio-based harvesting model claims flat costs")
	}
}

func TestSpecBuild(t *testing.T) {
	if m, err := (Spec{}).Build(); err != nil || m != nil {
		t.Fatalf("zero spec built %v, %v; want nil, nil", m, err)
	}
	m, err := Spec{Model: ModelPaper, TxJ: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if pm, ok := m.(PaperModel); !ok || pm.TxJ != 3 || pm.RxJ != DefaultRxCost {
		t.Fatalf("paper spec built %#v", m)
	}
	m, err = Spec{Model: ModelRadio}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if rm, ok := m.(RadioModel); !ok || rm != DefaultRadioModel() {
		t.Fatalf("radio spec built %#v", m)
	}
	m, err = Spec{Model: ModelHarvesting, Base: ModelPaper, PeriodS: 5}.Build()
	if err != nil {
		t.Fatal(err)
	}
	hm, ok := m.(HarvestingModel)
	if !ok || hm.Period != 5*time.Second {
		t.Fatalf("harvesting spec built %#v", m)
	}
	if _, isPaper := hm.Base.(PaperModel); !isPaper {
		t.Fatalf("harvesting base = %#v, want PaperModel", hm.Base)
	}
	// Harvesting defaults to the radio base: flat pricing would make the
	// wrapper pointless for lifetime studies.
	m, err = Spec{Model: ModelHarvesting}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, isRadio := m.(HarvestingModel).Base.(RadioModel); !isRadio {
		t.Fatalf("default harvesting base = %#v, want RadioModel", m.(HarvestingModel).Base)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Model: "nuclear"},
		{Model: ModelHarvesting, Base: "harvesting"},
		{TxJ: -1},
		{EElec: -1},
		{PacketBits: -1},
		{Model: ModelHarvesting, ChargeEfficiency: 1.5},
		{Model: ModelHarvesting, SleepFraction: 1},
		{Model: ModelHarvesting, HarvestRate: -0.1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid spec", s)
		}
		if _, err := s.Build(); err == nil {
			t.Errorf("Build(%+v) accepted an invalid spec", s)
		}
	}
	good := []Spec{
		{},
		{Model: ModelPaper},
		{Model: ModelRadio, EMp: 1e-15},
		{Model: ModelHarvesting, Base: ModelRadio, SleepFraction: 0.5},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", s, err)
		}
	}
}

// TestMeterChargeAllocs guards the per-packet hot path: charging a meter
// must not allocate under any built-in model. The benchmark's
// energy.charge_paper_ns and energy.charge_radio_ns probes time the same calls.
func TestMeterChargeAllocs(t *testing.T) {
	models := map[string]CostModel{
		"paper":               DefaultModel(),
		"radio":               DefaultRadioModel(),
		"harvesting":          HarvestingModel{Base: DefaultRadioModel()},
		"harvesting-nil-base": HarvestingModel{},
	}
	for name, model := range models {
		m := NewMeter(model, 1e9)
		avg := testing.AllocsPerRun(1000, func() {
			m.ChargeTx(Communication, DefaultPacketBits, 93)
			m.ChargeRx(Communication, DefaultPacketBits, 42)
		})
		if avg != 0 {
			t.Errorf("%s: %v allocs per Tx+Rx charge, want 0", name, avg)
		}
	}
}

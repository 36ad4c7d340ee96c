package energy

import (
	"math"
	"testing"
)

func TestBlockEnergy(t *testing.T) {
	m := Model{CapacityJoules: 1000, BasePowerWatts: 2, HashEnergyJoules: 0.001}
	got := m.BlockEnergy(10, 5000)
	want := 2.0*10 + 0.001*5000
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("BlockEnergy = %v, want %v", got, want)
	}
}

func TestBatteryDrain(t *testing.T) {
	m := Model{CapacityJoules: 100, BasePowerWatts: 1, HashEnergyJoules: 0}
	if got := m.PercentLeft(0); got != 100 {
		t.Fatalf("fresh battery at %v%%", got)
	}
	if got := m.PercentLeft(40); got != 60 {
		t.Fatalf("remaining %v%%, want 60", got)
	}
	if got := m.PercentLeft(140); got != 0 {
		t.Fatalf("over-drained battery at %v%%, must clamp at zero", got)
	}
}

// The calibration must reproduce the paper's headline numbers: ~4 PoW
// blocks and ~11 PoS blocks per 1% of a Galaxy S8 battery at 25 s mean
// block time, i.e. PoS uses roughly 64% less energy per block.
func TestCalibrationMatchesPaper(t *testing.T) {
	m := GalaxyS8()
	onePercent := m.CapacityJoules / 100

	powPerBlock := m.BlockEnergy(25, 1<<16) // expected hashes at 16-bit difficulty
	posPerBlock := m.BlockEnergy(25, 26)    // 1 hit hash + 1 check/s

	powBlocks := onePercent / powPerBlock
	posBlocks := onePercent / posPerBlock
	if powBlocks < 3.4 || powBlocks > 4.6 {
		t.Fatalf("PoW blocks per 1%% = %.2f, want ≈ 4 (paper)", powBlocks)
	}
	if posBlocks < 9.5 || posBlocks > 12.5 {
		t.Fatalf("PoS blocks per 1%% = %.2f, want ≈ 11 (paper)", posBlocks)
	}
	saving := 1 - posPerBlock/powPerBlock
	if saving < 0.55 || saving > 0.75 {
		t.Fatalf("PoS energy saving = %.0f%%, want ≈ 64%% (paper)", saving*100)
	}
	t.Logf("PoW %.2f blocks/%%, PoS %.2f blocks/%%, saving %.0f%%", powBlocks, posBlocks, saving*100)
}

func TestDrainBlock(t *testing.T) {
	m := Model{CapacityJoules: 1000, BasePowerWatts: 1, HashEnergyJoules: 0.01}
	// 10 s + 1000 hashes = 20 J of 1000.
	if got := m.PercentLeft(m.BlockEnergy(10, 1000)); math.Abs(got-98) > 1e-9 {
		t.Fatalf("remaining %v%%, want 98", got)
	}
}

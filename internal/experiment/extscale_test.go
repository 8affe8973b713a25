package experiment

import "testing"

// TestExtScaleRejectsBadSweepOverride pins the env-override parsing.
func TestExtScaleRejectsBadSweepOverride(t *testing.T) {
	t.Setenv("GSSO_SCALE_N", "512,banana")
	if _, err := RunExtScale(Quick(1)); err == nil {
		t.Fatal("bad GSSO_SCALE_N accepted")
	}
	t.Setenv("GSSO_SCALE_N", "")
	sc := Quick(1)
	sc.ScaleSweep = nil
	if _, err := RunExtScale(sc); err == nil {
		t.Fatal("empty sweep accepted")
	}
}

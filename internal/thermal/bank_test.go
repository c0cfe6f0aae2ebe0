package thermal

import "testing"

// TestRoomBankBinding pins the bank's row-binding contract: a bank has at
// least one row, out-of-range and already-bound rows are refused, and
// StepAll skips rows left unbound.
func TestRoomBankBinding(t *testing.T) {
	if _, err := NewRoomBank(0); err == nil {
		t.Fatal("NewRoomBank(0) succeeded, want error")
	}
	bank, err := NewRoomBank(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	for _, row := range []int{-1, 2} {
		if _, err := bank.NewRoomAtOutdoor(row, cfg); err == nil {
			t.Fatalf("NewRoomAtOutdoor(%d) succeeded, want out-of-range error", row)
		}
	}
	if _, err := bank.NewRoomAtOutdoor(0, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := bank.NewRoomAtOutdoor(0, cfg); err == nil {
		t.Fatal("double-binding row 0 succeeded, want error")
	}
	bank.StepAll(1) // row 1 is unbound
}

package hwtask

import "testing"

func TestTaskPickerDeterministicAndCoversSet(t *testing.T) {
	p1 := NewMenuPicker(DefaultTaskMenu(1), 7, false)
	p2 := NewMenuPicker(DefaultTaskMenu(1), 7, false)
	seen := map[uint16]bool{}
	for i := 0; i < 200; i++ {
		a, b := p1.Next(), p2.Next()
		if a != b {
			t.Fatal("picker not deterministic")
		}
		seen[a] = true
	}
	if len(seen) < 3 {
		t.Errorf("picker covered only %d distinct tasks", len(seen))
	}
}

func TestTaskPickerSequentialCyclesMenu(t *testing.T) {
	menu := []uint16{5, 9, 2}
	p := NewMenuPicker(menu, 0, true)
	for i := 0; i < 9; i++ {
		if got, want := p.Next(), menu[i%len(menu)]; got != want {
			t.Fatalf("sequential pick %d = %d, want %d", i, got, want)
		}
	}
}

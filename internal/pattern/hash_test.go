package pattern

import "testing"

func TestAvoidHash(t *testing.T) {
	if AvoidHash(nil) != 0 {
		t.Error("nil (unrestricted) must hash to 0")
	}
	if AvoidHash([]bool{false, false, false}) == 0 {
		t.Error("all-false set must hash nonzero (distinct build input)")
	}
	a := []bool{false, true, false, true}
	b := []bool{false, true, false, true}
	if AvoidHash(a) != AvoidHash(b) {
		t.Error("equal sets hash differently")
	}
	variants := [][]bool{
		{true, false, false, true},   // different members
		{false, true, false},         // different length
		{false, true, true, true},    // superset
		{false, false, false, false}, // empty restriction, same length
	}
	for i, v := range variants {
		if AvoidHash(v) == AvoidHash(a) {
			t.Errorf("variant %d collides with the base set", i)
		}
	}
}

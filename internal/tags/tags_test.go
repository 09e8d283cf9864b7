package tags

import "testing"

// registryBlocks are the [lo, hi) intervals actually used on the wire,
// named as Phase names them. Step ladders are
// bounded by ⌈log2 n⌉ ≤ 63 halving steps (PropBase/ReplyBase
// interleave as step*4+phase*2, phase < 2).
var registryBlocks = []struct {
	name   string
	lo, hi int
}{
	{"naive", Naive, Naive + 1},
	{"dh-final", DHFinal, DHFinal + 1},
	{"dh-step", DHStep, DHStep + 64},
	{"cn-share", CNShare, CNShare + 1},
	{"cn-deliv", CNDeliv, CNDeliv + 1},
	{"a2a-naive", A2ANaive, A2ANaive + 1},
	{"a2a-final", A2AFinal, A2AFinal + 1},
	{"a2a-step", A2AStep, A2AStep + 64},
	{"lb-direct", LBDirect, LBDirect + 1},
	{"lb-gather", LBGather, LBGather + 1},
	{"lb-node", LBNode, LBNode + 1},
	{"lb-dist", LBDist, LBDist + 1},
	{"build-prop-reply", PropBase, PropBase + 64*4},
	{"build-desc", DescBase, DescBase + 64},
	{"build-note", NoteBase, NoteBase + 64},
	{"build-final", FinalNote, FinalNote + 1},
	{"build-exchange", Exchange, Exchange + 8192},
	{"cn-pair", CNPairBase, CNPairBase + 64},
	{"cn-merge", CNMerge, CNMerge + 1},
	{"cn-aff-note", CNAffNote, CNAffNote + 1},
}

// TestBlocksDisjoint pins the registry layout: every static tag block,
// widened by its step/round ladder, stays disjoint from every other,
// and the smallest fail-stop epoch shift clears all collective tags.
func TestBlocksDisjoint(t *testing.T) {
	for i, a := range registryBlocks {
		if a.lo >= a.hi {
			t.Fatalf("block %s is empty", a.name)
		}
		for _, b := range registryBlocks[i+1:] {
			if a.lo < b.hi && b.lo < a.hi {
				t.Errorf("tag blocks %s [%d,%d) and %s [%d,%d) overlap",
					a.name, a.lo, a.hi, b.name, b.lo, b.hi)
			}
		}
	}

	// The FT epoch shift must clear every collective tag block (the
	// only tags that run under fail-stop recovery), and distinct
	// (epoch, round) pairs must never collide given collective tags
	// stay below the 1<<13 round stride.
	minShift := FTShift(1, 0)
	maxCollective := LBDist + 1
	if minShift <= Exchange+8192 {
		t.Errorf("FTShift(1,0)=%d does not clear the static registry", minShift)
	}
	if maxCollective >= 1<<13 {
		t.Errorf("collective tags reach %d, colliding with the FT round stride %d", maxCollective, 1<<13)
	}
	if FTShift(1, 1)-FTShift(1, 0) != 1<<13 || FTShift(2, 0)-FTShift(1, 63) != 1<<13 {
		t.Errorf("FTShift strides are not uniform: %d %d",
			FTShift(1, 1)-FTShift(1, 0), FTShift(2, 0)-FTShift(1, 63))
	}
}

// TestPhase reads the registry table back through Phase: both ends of
// every block name that block, and inside a fail-stop epoch a
// collective tag keeps its name and reports the epoch.
func TestPhase(t *testing.T) {
	for _, b := range registryBlocks {
		for _, tag := range []int{b.lo, b.hi - 1} {
			if name, _, epoch := Phase(tag); name != b.name || epoch != 0 {
				t.Errorf("Phase(%d) = %s epoch %d, want %s epoch 0", tag, name, epoch, b.name)
			}
			if b.hi > 1<<13 {
				continue // FTShift moves collective tags only
			}
			for _, e := range [][2]int{{1, 0}, {1, 5}, {3, 63}} {
				if name, _, epoch := Phase(tag + FTShift(e[0], e[1])); name != b.name || epoch != e[0] {
					t.Errorf("Phase(%d + FTShift(%d, %d)) = %s epoch %d, want %s epoch %d", tag, e[0], e[1], name, epoch, b.name, e[0])
				}
			}
		}
	}
	if _, step, _ := Phase(DHStep + 5); step != 5 {
		t.Errorf("Phase(DHStep+5) step %d, want 5", step)
	}
	if _, step, _ := Phase(ReplyBase + 3*4 + 2); step != 3 {
		t.Errorf("Phase(ReplyBase+3*4+2) step %d, want 3", step)
	}
	if _, step, _ := Phase(DHFinal); step != -1 {
		t.Errorf("Phase(DHFinal) step %d, want -1", step)
	}
}

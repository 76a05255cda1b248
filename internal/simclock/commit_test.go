package simclock

import (
	"slices"
	"testing"
)

// A barrier replays posts in (when, core) order whatever order the cores
// posted them in; posts from one core at one instant keep program order.
func TestCommitterOrder(t *testing.T) {
	var cm Committer
	var fired []string
	post := func(core int, when Cycles, tag string) {
		cm.Post(core, when, func() { fired = append(fired, tag) })
	}
	// Interleaved posts from three cores, out of time order.
	post(1, 30, "c1@30")
	post(0, 20, "c0@20")
	post(2, 10, "c2@10")
	post(1, 20, "c1@20")
	post(0, 30, "c0@30/a")
	post(2, 20, "c2@20")
	post(0, 30, "c0@30/b") // same core and instant as c0@30/a: after it
	post(0, 30, "c0@30/c")
	post(1, 10, "c1@10")

	if !cm.Pending() {
		t.Fatal("Pending = false with nine posts queued")
	}
	if n := cm.Commit(); n != 9 {
		t.Fatalf("Commit fired %d closures, want 9", n)
	}
	want := []string{
		"c1@10", "c2@10", // tie at 10: lower core first
		"c0@20", "c1@20", "c2@20",
		"c0@30/a", "c0@30/b", "c0@30/c", "c1@30",
	}
	if !slices.Equal(fired, want) {
		t.Errorf("replay order\n got %v\nwant %v", fired, want)
	}
	if cm.Pending() || cm.Commits != 9 {
		t.Errorf("after Commit: Pending=%v Commits=%d, want false 9", cm.Pending(), cm.Commits)
	}
	if n := cm.Commit(); n != 0 {
		t.Errorf("empty Commit fired %d closures", n)
	}
}

// Program order survives a replay long enough that the sort cannot fall
// back to insertion sort: 32 same-instant posts alternating two cores.
func TestCommitterProgramOrderAtScale(t *testing.T) {
	var cm Committer
	var fired []int
	for i := range 32 {
		cm.Post(1-i%2, 7, func() { fired = append(fired, i) })
	}
	cm.Commit()
	var want []int
	for i := 1; i < 32; i += 2 { // core 0's posts, in program order
		want = append(want, i)
	}
	for i := 0; i < 32; i += 2 { // then core 1's
		want = append(want, i)
	}
	if !slices.Equal(fired, want) {
		t.Errorf("replay order\n got %v\nwant %v", fired, want)
	}
}

// A closure that posts during Commit defers its follow-up to the next
// Commit, even when the follow-up is stamped earlier than closures still
// waiting in the current replay.
func TestCommitterPostDuringCommit(t *testing.T) {
	var cm Committer
	var fired []string
	cm.Post(0, 10, func() {
		fired = append(fired, "first")
		cm.Post(0, 5, func() { fired = append(fired, "follow-up") })
	})
	cm.Post(1, 20, func() { fired = append(fired, "second") })

	if n := cm.Commit(); n != 2 {
		t.Fatalf("first Commit fired %d closures, want 2", n)
	}
	if want := []string{"first", "second"}; !slices.Equal(fired, want) {
		t.Fatalf("first Commit fired %v, want %v", fired, want)
	}
	if !cm.Pending() {
		t.Fatal("follow-up posted during Commit is not pending")
	}
	if n := cm.Commit(); n != 1 {
		t.Fatalf("second Commit fired %d closures, want 1", n)
	}
	if want := []string{"first", "second", "follow-up"}; !slices.Equal(fired, want) {
		t.Errorf("fired %v, want %v", fired, want)
	}
	if cm.Pending() {
		t.Error("Pending after the follow-up fired")
	}
}

package state

import (
	"bytes"
	"testing"

	"blockbench/internal/kvstore"
	"blockbench/internal/types"
)

func newMVBase(t *testing.T) *DB {
	t.Helper()
	b, err := NewTrieBackend(kvstore.NewMem(), types.ZeroHash, 0)
	if err != nil {
		t.Fatal(err)
	}
	return NewDB(b)
}

func TestMVStoreReadVersions(t *testing.T) {
	base := newMVBase(t)
	base.SetState("c", []byte("k"), []byte("base"))

	mv := NewMVStore(base)

	// Before any in-block commit, every read resolves in the base.
	if v, ver := mv.Read("c:c:k", 5); string(v) != "base" || ver != BaseVersion {
		t.Fatalf("read = %q v%d, want base/BaseVersion", v, ver)
	}

	mv.Commit(2, map[string][]byte{"c:c:k": []byte("two")})
	mv.Commit(4, map[string][]byte{"c:c:k": []byte("four")})

	cases := []struct {
		before int
		value  string
		ver    int
	}{
		{1, "base", BaseVersion}, // below the lowest writer
		{2, "base", BaseVersion}, // writer 2 itself is not visible to tx 2
		{3, "two", 2},
		{4, "two", 2},
		{5, "four", 4},
		{9, "four", 4},
	}
	for _, c := range cases {
		v, ver := mv.Read("c:c:k", c.before)
		if string(v) != c.value || ver != c.ver {
			t.Fatalf("Read(before=%d) = %q v%d, want %q v%d", c.before, v, ver, c.value, c.ver)
		}
	}
}

func TestMVStoreDeletionShadowsBase(t *testing.T) {
	base := newMVBase(t)
	base.SetState("c", []byte("k"), []byte("base"))

	mv := NewMVStore(base)
	mv.Commit(1, map[string][]byte{"c:c:k": nil})

	if v, ver := mv.Read("c:c:k", 3); v != nil || ver != 1 {
		t.Fatalf("deleted key read = %q v%d, want nil v1", v, ver)
	}
	// The deletion is a versioned write: readers below it still see base.
	if v, ver := mv.Read("c:c:k", 1); string(v) != "base" || ver != BaseVersion {
		t.Fatalf("pre-deletion read = %q v%d, want base/BaseVersion", v, ver)
	}
}

func TestMVStoreApplyTo(t *testing.T) {
	base := newMVBase(t)
	base.SetState("c", []byte("keep"), []byte("old"))
	base.SetState("c", []byte("gone"), []byte("doomed"))

	mv := NewMVStore(base)
	mv.Commit(0, map[string][]byte{"c:c:keep": []byte("v0")})
	mv.Commit(3, map[string][]byte{
		"c:c:keep": []byte("v3"),
		"c:c:gone": nil,
		"c:c:new":  []byte("fresh"),
	})
	mv.ApplyTo(base)

	if got := base.GetState("c", []byte("keep")); string(got) != "v3" {
		t.Fatalf("keep = %q, want highest writer's value v3", got)
	}
	if got := base.GetState("c", []byte("gone")); got != nil {
		t.Fatalf("gone = %q, want deleted", got)
	}
	if got := base.GetState("c", []byte("new")); string(got) != "fresh" {
		t.Fatalf("new = %q, want fresh", got)
	}
}

func TestTxViewRecordsFirstObservation(t *testing.T) {
	base := newMVBase(t)
	base.SetState("c", []byte("k"), []byte("base"))
	mv := NewMVStore(base)
	mv.Commit(1, map[string][]byte{"c:c:k": []byte("one")})

	v := NewTxView(mv, 3)
	for i := 0; i < 3; i++ {
		got, err := v.Get([]byte("c:c:k"))
		if err != nil || string(got) != "one" {
			t.Fatalf("Get = %q, %v", got, err)
		}
	}
	reads := v.Reads()
	if len(reads) != 1 {
		t.Fatalf("recorded %d reads, want 1 (first observation per key)", len(reads))
	}
	if reads[0].Key != "c:c:k" || reads[0].Version != 1 {
		t.Fatalf("read record = %+v, want c:c:k v1", reads[0])
	}
}

func TestTxViewWriteCaptureThroughDB(t *testing.T) {
	base := newMVBase(t)
	base.SetState("c", []byte("old"), []byte("x"))
	mv := NewMVStore(base)

	v := NewTxView(mv, 0)
	db := NewDB(v)
	db.SetState("c", []byte("w"), []byte("val"))
	db.DeleteState("c", []byte("old"))
	if _, err := db.Commit(); err != nil {
		t.Fatal(err)
	}

	w := v.Writes()
	if got := w["c:c:w"]; !bytes.Equal(got, []byte("val")) {
		t.Fatalf("captured write = %q, want val", got)
	}
	if got, ok := w["c:c:old"]; !ok || got != nil {
		t.Fatalf("captured deletion = %q (present=%v), want nil deletion", got, ok)
	}
	// Captured privately: nothing reached the base DB.
	if got := base.GetState("c", []byte("w")); got != nil {
		t.Fatalf("speculative write leaked to base: %q", got)
	}
	if got := base.GetState("c", []byte("old")); string(got) != "x" {
		t.Fatalf("speculative deletion leaked to base: %q", got)
	}
}

func TestTxViewReset(t *testing.T) {
	base := newMVBase(t)
	mv := NewMVStore(base)
	v := NewTxView(mv, 1)
	if _, err := v.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Commit(map[string][]byte{"k": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	if len(v.Reads()) == 0 || len(v.Writes()) == 0 {
		t.Fatal("setup did not populate the view")
	}
	v.Reset()
	if len(v.Reads()) != 0 || len(v.Writes()) != 0 {
		t.Fatalf("Reset left state: reads=%d writes=%d", len(v.Reads()), len(v.Writes()))
	}
}

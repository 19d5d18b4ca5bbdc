package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// pageCaps returns the capacities of the arena's pages in order.
func pageCaps(a *arena) []int {
	caps := make([]int, len(a.pages))
	for i, p := range a.pages {
		caps[i] = cap(p)
	}
	return caps
}

// checkRetained asserts that retained is the sum of the page capacities.
func checkRetained(t testing.TB, a *arena) {
	t.Helper()
	sum := 0
	for _, c := range pageCaps(a) {
		sum += c
	}
	if a.retained != sum {
		t.Fatalf("retained = %d, pages hold %d (%v)", a.retained, sum, pageCaps(a))
	}
}

// TestArenaPageGrowth pins the page policy: the first page starts at
// arenaFirstPage and each new page doubles up to arenaPageSize.
func TestArenaPageGrowth(t *testing.T) {
	var a arena
	tuple := bytes.Repeat([]byte{7}, 100)
	for a.retained < 4*arenaPageSize {
		a.place(tuple)
	}
	caps := pageCaps(&a)
	want := arenaFirstPage
	for i, c := range caps {
		if c != want {
			t.Fatalf("page %d holds %d bytes, want %d (pages %v)", i, c, want, caps)
		}
		want = min(2*want, arenaPageSize)
	}
	if caps[len(caps)-1] != arenaPageSize {
		t.Fatalf("pages never reached %d bytes: %v", arenaPageSize, caps)
	}
	checkRetained(t, &a)
}

// TestArenaFirstPageFitsTuple: a first tuple bigger than arenaFirstPage
// gets a page that fits it, and a tuple that outgrows the doubling gets a
// page that fits it too.
func TestArenaFirstPageFitsTuple(t *testing.T) {
	var a arena
	a.place(make([]byte, 3000))
	if got := pageCaps(&a); len(got) != 1 || got[0] != 4096 {
		t.Fatalf("first page for a 3000-byte tuple: %v, want [4096]", got)
	}
	a.place(make([]byte, arenaPageSize/4))
	if got := pageCaps(&a); len(got) != 2 || got[1] != arenaPageSize/4 {
		t.Fatalf("page for a %d-byte tuple after a 4096-byte page: %v", arenaPageSize/4, got)
	}
	checkRetained(t, &a)
}

// TestArenaJumboKeepsActivePage: a jumbo tuple gets its own exact page and
// the partly filled regular page stays the one small tuples go to.
func TestArenaJumboKeepsActivePage(t *testing.T) {
	var a arena
	small := a.place([]byte("small"))
	jumbo := a.place(make([]byte, arenaPageSize))
	after := a.place([]byte("after"))
	if got := pageCaps(&a); len(got) != 2 || got[0] != arenaPageSize || got[1] != arenaFirstPage {
		t.Fatalf("pages %v, want [jumbo %d, active %d]", got, arenaPageSize, arenaFirstPage)
	}
	if &small[0] == &jumbo[0] || &after[0] != &a.pages[1][len("small")] {
		t.Fatal("the tuple after a jumbo did not land on the active page")
	}
	if string(small) != "small" || string(after) != "after" || len(jumbo) != arenaPageSize {
		t.Fatal("aliases damaged around a jumbo page")
	}
	checkRetained(t, &a)
}

// arenaModel drives one bucketRows and a plain map side by side, keeping
// every alias the bucket ever handed out with the bytes it held then.
type arenaModel struct {
	t      testing.TB
	rows   *bucketRows
	schema *Schema
	want   map[string][]byte
	seen   [][2][]byte // (alias, copy at placement)
}

func newArenaModel(t testing.TB) *arenaModel {
	return &arenaModel{t: t, rows: newBucketRows(), schema: newSchema(), want: make(map[string][]byte)}
}

func (m *arenaModel) put(key string, size int, fill byte) {
	tuple := appendTuple(nil, m.schema, key, map[string]string{"v": string(bytes.Repeat([]byte{fill}, size))})
	m.rows.putTuple(tuple)
	alias := m.rows.get(key)
	if !bytes.Equal(alias, tuple) {
		m.t.Fatalf("put %s: stored %d bytes differ from the %d placed", key, len(alias), len(tuple))
	}
	m.want[key] = tuple
	m.seen = append(m.seen, [2][]byte{alias, tuple})
}

func (m *arenaModel) delete(key string) {
	_, had := m.want[key]
	if got := m.rows.delete(key); got != had {
		m.t.Fatalf("delete %s = %v, want %v", key, got, had)
	}
	delete(m.want, key)
}

// check asserts the index matches the model, every alias still reads back
// its bytes, and the byte accounting is exact.
func (m *arenaModel) check() {
	m.t.Helper()
	if m.rows.len() != len(m.want) {
		m.t.Fatalf("bucket holds %d rows, model %d", m.rows.len(), len(m.want))
	}
	live := 0
	for key, tuple := range m.want {
		got := m.rows.get(key)
		if !bytes.Equal(got, tuple) {
			m.t.Fatalf("row %s reads %d bytes, want %d", key, len(got), len(tuple))
		}
		live += len(tuple)
	}
	for i, s := range m.seen {
		if !bytes.Equal(s[0], s[1]) {
			m.t.Fatalf("alias %d changed after placement", i)
		}
	}
	if m.rows.live != live {
		m.t.Fatalf("live = %d, indexed tuples hold %d", m.rows.live, live)
	}
	checkRetained(m.t, &m.rows.ar)
}

// TestArenaAliasesSurviveGrowthAndCompaction: aliases handed out stay valid
// across page growth, jumbo tuples, overwrites, deletes and compaction.
func TestArenaAliasesSurviveGrowthAndCompaction(t *testing.T) {
	m := newArenaModel(t)
	for i := 0; i < 2000; i++ {
		m.put(fmt.Sprintf("k%d", i%300), 20+i%700, byte(i))
		if i%97 == 0 {
			m.put(fmt.Sprintf("jumbo%d", i%3), arenaPageSize/4+i, byte(i))
		}
		if i%5 == 0 {
			m.delete(fmt.Sprintf("k%d", (i*7)%300))
		}
		if i%250 == 0 {
			m.check()
		}
	}
	m.check()
	before := len(m.rows.ar.pages)
	for i := 0; i < 300; i++ {
		m.delete(fmt.Sprintf("k%d", i))
	}
	m.check()
	if len(m.rows.ar.pages) >= before {
		t.Fatalf("deleting most rows kept %d pages of %d: no compaction ran", len(m.rows.ar.pages), before)
	}
	for i := 0; i < 3; i++ {
		m.delete(fmt.Sprintf("jumbo%d", i))
	}
	m.check()
	if m.rows.ar.retained != 0 {
		t.Fatalf("empty bucket retains %d bytes", m.rows.ar.retained)
	}
}

// FuzzArenaPlace drives a bucket with fuzzed tuple sizes, overwrites and
// deletes: every alias it returns must read back its bytes, and retained
// memory must equal the pages' capacity. Each operation is four bytes: the
// kind (delete, or put of a small or near-jumbo tuple), the key and the
// size.
func FuzzArenaPlace(f *testing.F) {
	f.Add([]byte{0, 1, 10, 0, 1, 2, 200, 3, 3, 1, 0, 0})
	f.Add([]byte{0, 0, 0xff, 0x7f, 1, 0, 0x10, 0x40, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*64 { // 64 operations keep each run, and minimizing, fast
			ops = ops[:4*64]
		}
		m := newArenaModel(t)
		for ; len(ops) >= 4; ops = ops[4:] {
			key := fmt.Sprintf("k%d", ops[1]%32)
			size := int(binary.LittleEndian.Uint16(ops[2:4])) % 2048
			switch ops[0] % 3 {
			case 0:
				m.put(key, size, ops[2])
			case 1:
				m.put(key, arenaPageSize/4-1024+size, ops[2])
			case 2:
				m.delete(key)
			}
		}
		m.check()
	})
}

// Package values is the interned value store: the data representation
// every hot path of the library reads.
//
// The enforcement and matching algorithms of the paper evaluate
// similarity predicates v ≈ v′ over attribute *values*, yet a naive
// executor re-evaluates them over raw strings per tuple pair. Real
// corpora have far fewer distinct values than tuples — duplicates share
// values by construction — so the standard similarity-join trick
// applies: intern every string of a column to a dense uint32 ID once,
// precompute the derived forms a value needs (rune slice and length for
// edit distances, interned Soundex code for phonetic tests), and
// memoize each similarity operator as a verdict cache keyed by value-ID
// pairs instead of tuple pairs. The package also owns the blocking-key
// field escaping (keys.go) every key-rendering layer shares.
//
// The cache key is canonical: operators satisfy the paper's generic
// axioms (reflexivity, symmetry, equality subsumption — property-tested
// in axioms_test.go), so for IDs of one shared dictionary the verdict of
// (a, b) equals the verdict of (min(a,b), max(a,b)) and half the key
// space suffices. Reflexivity makes a == b a cache-free true; equality
// subsumption makes the equality operator a plain integer comparison.
//
// A Dict is NOT safe for concurrent use; concurrent layers (the serving
// engine) guard their dictionaries and caches with their own locks.
package values

import (
	"unsafe"

	"mdmatch/internal/similarity"
)

// ID is a dense dictionary-assigned value identifier. IDs are only
// comparable within one Dict: equal IDs mean equal strings, and the
// equality operator over a shared dictionary is ID equality.
type ID uint32

// None is the sentinel for "not interned" (Lookup misses).
const None ID = ^ID(0)

// MaxValues caps a dictionary's size so IDs stay clear of None.
const MaxValues = int(^uint32(0)) - 1

// Dict interns the distinct values of one column (or of one group of
// columns that exchange values) to dense IDs and owns their derived
// forms, each computed at most once per distinct value:
//
//   - the decoded rune slice and rune length (edit-distance operators);
//   - the Soundex code, itself interned so phonetic equivalence is an
//     integer comparison.
//
// Value bytes live in one append-only slab (blob + offsets) rather than
// one heap string per value: a million-value dictionary costs one large
// allocation plus 4 bytes of offset per value instead of a 16-byte
// string header each, interning detaches the dictionary from caller
// buffers (the input batch's strings are copied into the slab, not
// retained), and a point-in-time Table view of the slab is O(1) to
// capture — which is what lets a snapshot cut the dictionary under a
// lock without cloning it.
type Dict struct {
	ids  map[string]ID
	blob []byte   // concatenated value bytes, append-only
	off  []uint32 // value i is blob[off[i]:off[i+1]]; len(off) == Len()+1

	runes   [][]rune // lazily decoded; runeLen[i] < 0 means undecoded
	runeLen []int32
	sdx     []int32 // lazily computed Soundex code id; -1 means uncomputed
	codes   map[string]int32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]ID), off: make([]uint32, 1, 16)}
}

// Len returns the number of distinct interned values.
func (d *Dict) Len() int { return len(d.off) - 1 }

// Intern returns the ID of v, assigning the next dense ID on first
// sight. It panics when the dictionary would exceed MaxValues.
func (d *Dict) Intern(v string) ID {
	if id, ok := d.ids[v]; ok {
		return id
	}
	if d.Len() >= MaxValues {
		panic("values: dictionary overflow")
	}
	if uint64(len(d.blob))+uint64(len(v)) > uint64(^uint32(0)) {
		panic("values: dictionary slab overflow")
	}
	id := ID(d.Len())
	d.blob = append(d.blob, v...)
	d.off = append(d.off, uint32(len(d.blob)))
	// Key the map by the slab-backed copy, not the caller's string, so
	// interning never pins caller-owned buffers.
	d.ids[d.Value(id)] = id
	d.runes = append(d.runes, nil)
	d.runeLen = append(d.runeLen, -1)
	d.sdx = append(d.sdx, -1)
	return id
}

// Lookup returns the ID of v, or (None, false) when v was never
// interned.
func (d *Dict) Lookup(v string) (ID, bool) {
	id, ok := d.ids[v]
	if !ok {
		return None, false
	}
	return id, true
}

// Value returns the string behind an ID. The string aliases the slab
// (zero-copy): the aliased bytes are written once by Intern and never
// rewritten, so the usual string immutability holds.
func (d *Dict) Value(id ID) string { return slabString(d.blob, d.off, int(id)) }

// slabString renders value i of a (blob, offsets) slab without copying.
// Safety: blob[off[i]:off[i+1]] is written exactly once, by the Intern
// that assigned ID i, before any reference to it escapes; appends only
// ever write past the last offset, and a growth reallocation copies to a
// fresh array leaving the old bytes (and any strings aliasing them)
// untouched.
func slabString(blob []byte, off []uint32, i int) string {
	start, end := off[i], off[i+1]
	if start == end {
		return ""
	}
	return unsafe.String(&blob[start], int(end-start))
}

// Runes returns the decoded rune slice of the value, computing it on
// first use. Callers must not mutate the result.
func (d *Dict) Runes(id ID) []rune {
	if d.runeLen[id] < 0 {
		d.runes[id] = []rune(d.Value(id))
		d.runeLen[id] = int32(len(d.runes[id]))
	}
	return d.runes[id]
}

// RuneLen returns the value's length in runes, computing the decoded
// form on first use.
func (d *Dict) RuneLen(id ID) int {
	if d.runeLen[id] < 0 {
		d.Runes(id)
	}
	return int(d.runeLen[id])
}

// WarmSoundex assigns the interned Soundex code of every value not yet
// coded, in ID order. SoundexID mutates the dictionary on first use, so
// a layer that reads codes from concurrent goroutines (the stream
// enforcer's parallel index seeding) warms them while it still holds
// exclusive access; until the next Intern, SoundexID is then a pure
// read.
func (d *Dict) WarmSoundex() {
	for i := range d.sdx {
		if d.sdx[i] < 0 {
			d.SoundexID(ID(i))
		}
	}
}

// SoundexID returns the interned Soundex code of the value: two values
// of one dictionary have equal Soundex codes iff their SoundexIDs are
// equal. The code is computed once per distinct value.
func (d *Dict) SoundexID(id ID) int32 {
	if d.sdx[id] >= 0 {
		return d.sdx[id]
	}
	code := similarity.Soundex(d.Value(id))
	if d.codes == nil {
		d.codes = make(map[string]int32)
	}
	ci, ok := d.codes[code]
	if !ok {
		ci = int32(len(d.codes))
		d.codes[code] = ci
	}
	d.sdx[id] = ci
	return ci
}

// Table is an immutable point-in-time view of a dictionary's string
// table: the first Len() values as they stood when Snapshot was called.
// Capturing one is O(1) — two slice headers — and reading it is safe
// concurrently with further interning into the source dictionary,
// because the slab prefix a Table covers is append-only and never
// rewritten (appends land past the captured lengths; a reallocation
// copies to a fresh array and leaves the captured one untouched). This
// is the representation a consistent snapshot cut carries out of the
// insertion lock.
type Table struct {
	blob []byte
	off  []uint32
}

// Snapshot captures the dictionary's current string table. The caller
// must hold whatever lock guards Intern on this dictionary for the
// duration of the call (not afterwards).
func (d *Dict) Snapshot() Table {
	return Table{blob: d.blob[:len(d.blob):len(d.blob)], off: d.off[:len(d.off):len(d.off)]}
}

// Len returns the number of values the table holds.
func (t Table) Len() int { return len(t.off) - 1 }

// Value returns value i without copying (the string aliases the slab).
func (t Table) Value(i int) string { return slabString(t.blob, t.off, i) }

// Bytes returns the total size in bytes of the table's value payload.
func (t Table) Bytes() int { return len(t.blob) }

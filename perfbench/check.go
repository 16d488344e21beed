package main

import (
	"bytes"
	"encoding/binary"
)

// model is the checker's record of what every data unit must hold. The
// payload of unit u at version v is a seeded block with u and v stamped
// into its first 16 bytes, so a stale read (older version), a misrouted
// read (other unit) and a garbled reconstruction all differ from it.
// Versions change only on the goroutine that owns the unit, and the
// sweep runs after the workers have joined, so the model needs no lock.
type model struct {
	unit   int
	blocks [][]byte
	ver    []uint32
}

// unknownVer flags a unit whose last write returned an error: its bytes
// are unspecified until the next acknowledged write, so reads skip it.
// The low bits keep counting, so a later version never repeats an old one.
const unknownVer = uint32(1) << 31

// modelBlocks is prime, so (u + 7v) mod modelBlocks walks every block
// as a unit's version grows and neighbouring units start apart.
const modelBlocks = 61

func newModel(seed uint64, units, unitSize int) *model {
	m := &model{unit: unitSize, ver: make([]uint32, units), blocks: make([][]byte, modelBlocks)}
	r := newRNG(mix(seed, "payload", 0))
	for i := range m.blocks {
		b := make([]byte, unitSize)
		for j := 0; j+8 <= unitSize; j += 8 {
			binary.LittleEndian.PutUint64(b[j:], r.next())
		}
		m.blocks[i] = b
	}
	return m
}

// fill writes unit u's payload at version v into buf (one unit).
func (m *model) fill(buf []byte, u int, v uint32) {
	copy(buf, m.blocks[(u+int(v)*7)%modelBlocks])
	binary.LittleEndian.PutUint64(buf, uint64(u))
	binary.LittleEndian.PutUint32(buf[8:], v)
	binary.LittleEndian.PutUint32(buf[12:], ^v)
}

// matches reports whether buf (one unit) holds unit u's current payload.
func (m *model) matches(buf []byte, u int) bool {
	v := m.ver[u]
	if v&unknownVer != 0 {
		return true
	}
	if binary.LittleEndian.Uint64(buf) != uint64(u) ||
		binary.LittleEndian.Uint32(buf[8:]) != v ||
		binary.LittleEndian.Uint32(buf[12:]) != ^v {
		return false
	}
	return bytes.Equal(buf[16:], m.blocks[(u+int(v)*7)%modelBlocks][16:])
}

// stage fills buf with the next version of the n units starting at u and
// returns the versions to commit once the write is acknowledged.
func (m *model) stage(buf []byte, u, n int) uint32 {
	v := m.ver[u]&^unknownVer + 1
	for i := 0; i < n; i++ {
		m.fill(buf[i*m.unit:(i+1)*m.unit], u+i, v)
	}
	return v
}

// commit records the outcome of a staged write of n units at u.
func (m *model) commit(u, n int, v uint32, err error) {
	if err != nil {
		v |= unknownVer
	}
	for i := 0; i < n; i++ {
		m.ver[u+i] = v
	}
}

// mismatches counts the units of buf (n units from u) that differ from
// the model.
func (m *model) mismatches(buf []byte, u, n int) int {
	bad := 0
	for i := 0; i < n; i++ {
		if !m.matches(buf[i*m.unit:(i+1)*m.unit], u+i) {
			bad++
		}
	}
	return bad
}

// prefillImage returns units [u, u+n) at version 0, for set-up writes.
func (m *model) prefillImage(buf []byte, u, n int) []byte {
	buf = buf[:n*m.unit]
	for i := 0; i < n; i++ {
		m.fill(buf[i*m.unit:(i+1)*m.unit], u+i, 0)
	}
	return buf
}

package xbar

import (
	"math"
	"math/bits"
	"sync"
	"unsafe"

	"fpsa/internal/hostcpu"
	"fpsa/internal/spike"
)

// The integer-lane walk keeps its columns in 16-bit lanes: four to a uint64
// in the portable body, sixteen to a 256-bit block in the AVX2 one.
const (
	laneBits = 16
	laneOnes = 0x0001_0001_0001_0001 // 1 in every lane
	laneTops = 0x8000_8000_8000_8000 // bit 15 of every lane
	// maxLaneEta bounds η so that membrane + drive < 2η stays below bit 15.
	maxLaneEta = 1 << 14
	// blockWords is one 256-bit block: four words, sixteen lanes.
	blockWords = 4
)

// laneAVX2 selects the AVX2 bodies of the integer-lane walk here, the
// float walk (walkFloatAVX2), the reference kernel (referenceSums), its
// integral-η epilogue (integerEpilogue) and Quantize. It is hostcpu.AVX2
// (AVX, AVX2, BMI1 and OS-saved YMM state), fixed for the process; only
// tests change it, to run the kernel tests under each body the CPU has.
var laneAVX2 = hostcpu.AVX2

// lanePair is the positive- and negative-polarity lane words of the same
// four walked columns.
type lanePair [2]uint64

// laneEligible reports whether the walked columns can take walkLanes under
// the current η: every conductance is a non-negative integer (maxDrive is
// finite), η is an integer in [1, 2^14), and no walked column can be driven
// past η in one cycle — so a membrane below η before a cycle is below 2η
// after the drive and below η again after one subtraction. The debt and
// output lanes count up to Γ ≤ MaxWindow, within 15 bits.
// Everything else — noisy conductances, a stuck-high cell lifting
// a column over η, a fractional or saturating η from SetEta — keeps the
// float walk.
func (c *Crossbar) laneEligible() bool {
	eta := c.eta
	return eta >= 1 && eta < maxLaneEta && eta == math.Trunc(eta) && c.maxDrive <= eta
}

// A lane row is one row's walk-column conductances in 16-bit lanes: the
// positive polarity's words, then the negative polarity's. Lane l of word w
// of either half holds column walkCols[4w+l]. laneWords is the number of
// words that hold a column (the portable body steps only those), laneHalf
// the padded half: at most eight walked columns pad it to two words, so a
// lane row is one 256-bit block with the positive lanes in its low 128 bits
// (a half-block row); more pad each half to whole 256-bit blocks.
func (c *Crossbar) laneWords() int { return (len(c.walkCols) + 3) / 4 }
func (c *Crossbar) laneHalf() int {
	if len(c.walkCols) <= 8 {
		return 2
	}
	return (len(c.walkCols) + 4*blockWords - 1) / (4 * blockWords) * blockWords
}

// silentTables memoizes silentTrains per window, as trainTables does
// uniformTrains.
var silentTables sync.Map // window → []uint64

// silentTrains returns uniformTrains' complement within the window: words
// [count·lanes, (count+1)·lanes) hold the cycles of [0, Γ) in which
// spike.UniformTrain(count, Γ) is silent, and no bit at or past Γ. It is
// where the lane walk reads a count above Γ/2 from, so neither body ever
// complements or masks a train — nor can step a cycle past the window.
func silentTrains(window int) []uint64 {
	if t, ok := silentTables.Load(window); ok {
		return t.([]uint64)
	}
	fire, lanes := uniformTrains(window), spike.Lanes(window)
	tab := make([]uint64, len(fire))
	for i, w := range fire {
		tab[i] = ^w
		if i%lanes == lanes-1 {
			tab[i] &= ^uint64(0) >> uint(-window&63) // the cycles of a train's last word
		}
	}
	t, _ := silentTables.LoadOrStore(window, tab)
	return t.([]uint64)
}

// packLanes builds laneG once per draw pass, with the scratch every body
// shares: laneG holds one lane row per crossbar row, countG Γ+1 lane rows
// (see walkLanes). Both are 64-byte aligned, so no lane row straddles a
// cache line.
func (c *Crossbar) packLanes() {
	if c.laneG != nil {
		return
	}
	c.silentTab = silentTrains(c.window)
	half := c.laneHalf()
	c.laneG = alignedWords[uint64](c.rows * 2 * half)
	c.present = make([]uint64, spike.Lanes(c.window))
	c.countG = alignedWords[uint64]((c.window + 1) * 2 * half)
	for i := 0; i < c.rows; i++ {
		row := c.laneG[i*2*half : (i+1)*2*half]
		for n, j := range c.walkCols {
			shift := uint(n%4) * laneBits
			row[n/4] |= uint64(c.posG[i*c.cols+j]) << shift
			row[half+n/4] |= uint64(c.negG[i*c.cols+j]) << shift
		}
	}
}

// alignedWords returns n zero 8-byte words starting on a 64-byte boundary,
// so no 256-bit lane block straddles a cache line. The Go heap does not move
// objects, so the alignment holds for the slice's life.
func alignedWords[T uint64 | float64](n int) []T {
	buf := make([]T, n+7)
	skip := int(-uintptr(unsafe.Pointer(&buf[0])) & 63 / 8)
	return buf[skip : skip+n : skip+n]
}

// alignedGrow is grow for alignedWords buffers: buf resized to n when its
// capacity holds n — the same aligned start — and new zero words
// otherwise.
func alignedGrow[T uint64 | float64](buf []T, n int) []T {
	if cap(buf) < n {
		return alignedWords[T](n)
	}
	return buf[:n]
}

// walkLanes runs one item over the walked columns of a laneEligible
// crossbar, entirely in integers. On such a crossbar every value the float
// walk computes is an integer below 2^15, so the same arithmetic in 16-bit
// lanes yields the same numbers; and because no neuron ends a cycle at or
// above η (see laneEligible), a zero-drive cycle changes nothing — there is
// no hot drain. docs/INVARIANTS.md has the argument in full, including why
// no lane operation can carry or borrow across lanes.
//
// Each body first groups the item's rows: it sums them by firing count into
// lane row k−1 of countG (equal counts fire on identical cycles, and a lane
// sum is at most the column's total ≤ η), and the rows firing more than Γ/2
// times again into the dense row. countG and present are all zero between
// items — each body zeroes the rows and words it reads — so grouping only
// adds and sets bits. Then it
//
//  1. fills every cycle's drives with the dense row: a count above Γ/2 is
//     silent on fewer cycles than it fires in, so it is added to every
//     cycle at once and later subtracted from its silent cycles (the AVX2
//     body on half-block rows adds the dense row in the walk instead, as
//     it reads each cycle's drives);
//  2. accumulates the drives unit-major, per count from the shared train
//     tables: a count of at most Γ/2 adds its row on the cycles its train
//     fires in (uniformTrains), a count above subtracts it from the cycles
//     it is silent in (silentTrains) — a lane holds the dense row minus
//     some of its own summands plus other rows, never less than what is
//     subtracted from it;
//  3. walks the cycles with each block of columns' state in registers: both
//     neurons, then the subtracter. The portable body keeps the subtracter's
//     debt in colNeuron.step's statement order; the AVX2 body keeps the
//     running maximum of the fire-count difference instead, which is the
//     same output (docs/INVARIANTS.md, "Integer lanes", item 4).
//
// The portable body does this four columns per uint64 operation, the AVX2
// body (amd64, chosen from CPUID: laneAVX2) sixteen per 256-bit one — both
// polarities of a half-block row in one — over the same lane rows and with
// the same 16-bit lane adds and subtracts; each owns its per-cycle drive
// scratch.
func (c *Crossbar) walkLanes(out, counts []uint16) {
	if laneAVX2 {
		c.walkLanesAVX2(out, counts)
	} else {
		c.walkLanesPortable(out, counts)
	}
}

// groupLanes is the portable body's grouping, into countG's first Γ rows
// and its last, the dense row.
func (c *Crossbar) groupLanes(counts []uint16) {
	window, nw, half := c.window, c.laneWords(), c.laneHalf()
	present, stride := c.present, 2*half
	dense := c.countG[window*stride : (window+1)*stride]
	for i, cnt := range counts {
		k := min(int(cnt), window) - 1
		if k < 0 {
			continue
		}
		present[k>>6] |= 1 << uint(k&63)
		g := c.laneG[i*stride : (i+1)*stride]
		sum := c.countG[k*stride : (k+1)*stride]
		dm := uint64(int64(window/2-1-k) >> 63) // all ones when k ≥ Γ/2
		for w := range nw {
			sum[w] += g[w]
			sum[half+w] += g[half+w]
			dense[w] += g[w] & dm
			dense[half+w] += g[half+w] & dm
		}
	}
}

// walkLanesPortable is walkLanes' body in plain Go: four columns per uint64
// word, stepping only the words that hold a column.
func (c *Crossbar) walkLanesPortable(out, counts []uint16) {
	c.groupLanes(counts)
	window, nw, half := c.window, c.laneWords(), c.laneHalf()
	stride, tl := 2*half, len(c.present)
	if c.laneDrv == nil {
		c.laneDrv = make([]lanePair, nw*window)
	}
	dense := c.countG[window*stride:]
	for w := range nw {
		g := lanePair{dense[w], dense[half+w]}
		dense[w], dense[half+w] = 0, 0
		drv := c.laneDrv[w*window : (w+1)*window]
		for t := range drv {
			drv[t] = g
		}
	}
	for l, p := range c.present {
		c.present[l] = 0
		for ; p != 0; p &= p - 1 {
			k := l<<6 + bits.TrailingZeros64(p)
			tab, isDense := c.trainTab, k >= window/2
			if isDense {
				tab = c.silentTab
			}
			train := tab[(k+1)*tl : (k+2)*tl]
			row := c.countG[k*stride:]
			for w := 0; w < nw; w++ {
				g := lanePair{row[w], row[half+w]}
				row[w], row[half+w] = 0, 0
				if isDense {
					g[0], g[1] = -g[0], -g[1]
				}
				drv := c.laneDrv[w*window : (w+1)*window]
				for tw, cycles := range train {
					for ; cycles != 0; cycles &= cycles - 1 {
						d := &drv[tw<<6+bits.TrailingZeros64(cycles)]
						d[0] += g[0]
						d[1] += g[1]
					}
				}
			}
		}
	}
	eta := uint64(c.eta)
	// A lane holding v < 2η has bit 15 set after adding bias exactly when v ≥ η.
	bias := (1<<15 - eta) * laneOnes
	for w := 0; w < nw; w++ {
		var memP, memN, debt, fired uint64
		for _, d := range c.laneDrv[w*window : (w+1)*window] {
			if d[0]|d[1] == 0 {
				continue
			}
			memP += d[0]
			sp := (memP + bias) & laneTops >> 15
			memP -= sp * eta
			memN += d[1]
			sn := (memN + bias) & laneTops >> 15
			memN -= sn * eta
			debt += sn
			cancel := sp & ((debt + (1<<15-1)*laneOnes) & laneTops >> 15) // sp where debt > 0
			debt -= cancel
			fired += sp ^ cancel
		}
		for l, j := range c.walkCols[4*w : min(4*w+4, len(c.walkCols))] {
			out[j] = uint16(fired >> (uint(l) * laneBits))
		}
	}
}

// walkLanesAVX2 is walkLanes' body in AVX2 (lanesAVX2): sixteen lanes per
// instruction, grouping included, one assembly call per item, every step of
// it bounded by rows·⌈walked columns/16⌉ or Γ·⌈walked columns/16⌉. A
// half-block row never reads or writes countG's dense row: the body keeps
// that sum in a register, and keeps laneDrvAVX2 zero between items.
func (c *Crossbar) walkLanesAVX2(out, counts []uint16) {
	half := c.laneHalf()
	if c.laneDrvAVX2 == nil {
		c.laneDrvAVX2 = alignedWords[uint64](c.window * 2 * half)
		c.firedAVX2 = make([]uint16, 4*half)
	}
	lanesAVX2(&c.laneDrvAVX2[0], &c.countG[0], &c.laneG[0], &counts[0], &c.present[0], &c.trainTab[0], &c.silentTab[0], &c.firedAVX2[0],
		len(counts), c.window, half, uint64(c.eta))
	for n, j := range c.walkCols {
		out[j] = c.firedAVX2[n]
	}
}

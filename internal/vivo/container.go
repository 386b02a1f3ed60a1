package vivo

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/geom"
	"volcast/internal/tier"
)

// Container format ("VCSTOR"): a serialized Store, so servers can encode
// content once and load it at startup instead of re-encoding. Layout
// (little-endian, varints where noted):
//
//	magic    [6]byte "VCSTOR"
//	version  uint8
//	fps      uvarint
//	frames   uvarint
//	size     float64        (cell edge, meters)
//	origin   3 × float64    (grid min corner)
//	dims     3 × uvarint    (grid cell counts)
//	nstrides uvarint, then each stride as uvarint
//	per frame:
//	  occupied count + delta-varint cell IDs
//	  block count, then per block (ascending cell ID, once — every rung
//	  is a layer prefix of it):
//	    layers uvarint, per-layer point count × uvarint,
//	    payload len uvarint, payload
//	crc-less: each codec block already carries its own checksums. The
//	cell ID, point count and layer offsets are read back out of the
//	block header (codec.ParseBlock).

var storeMagic = [6]byte{'V', 'C', 'S', 'T', 'O', 'R'}

// storeVersion is the current container version. Version 1 stored every
// rung's prefix as a block of its own, without the layer tables.
const storeVersion = 2

// Errors returned by the container codec.
var (
	ErrBadContainer = errors.New("vivo: bad container")
)

// WriteStore serializes the store.
func WriteStore(w io.Writer, s *Store) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(storeMagic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(storeVersion); err != nil {
		return err
	}
	var scratch []byte
	put := func(vals ...uint64) error {
		scratch = scratch[:0]
		for _, v := range vals {
			scratch = binary.AppendUvarint(scratch, v)
		}
		_, err := bw.Write(scratch)
		return err
	}
	putF := func(f float64) error {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		_, err := bw.Write(b[:])
		return err
	}
	if err := put(uint64(s.fps), uint64(s.NumFrames())); err != nil {
		return err
	}
	if err := putF(s.grid.Size()); err != nil {
		return err
	}
	o := s.grid.Origin()
	for _, f := range []float64{o.X, o.Y, o.Z} {
		if err := putF(f); err != nil {
			return err
		}
	}
	nx, ny, nz := s.grid.Dims()
	if err := put(uint64(nx), uint64(ny), uint64(nz)); err != nil {
		return err
	}
	if err := put(uint64(len(s.strides))); err != nil {
		return err
	}
	for _, st := range s.strides {
		if err := put(uint64(st)); err != nil {
			return err
		}
	}
	for fi := 0; fi < s.NumFrames(); fi++ {
		fb := s.Frame(fi)
		ids := fb.Occupied.IDs()
		if err := put(uint64(len(ids))); err != nil {
			return err
		}
		prev := int64(0)
		for _, id := range ids {
			if err := put(uint64(int64(id) - prev)); err != nil {
				return err
			}
			prev = int64(id)
		}
		blocks := fb.ByStride[s.strides[0]]
		if err := put(uint64(len(blocks))); err != nil {
			return err
		}
		// Deterministic order: ascending cell ID via the occupied set.
		for _, id := range ids {
			blk, ok := blocks[id]
			if !ok {
				continue
			}
			if err := put(uint64(blk.Layers())); err != nil {
				return err
			}
			for _, n := range blk.LayerPoints {
				if err := put(uint64(n)); err != nil {
					return err
				}
			}
			if err := put(uint64(len(blk.Data))); err != nil {
				return err
			}
			if _, err := bw.Write(blk.Data); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadStore reads the container file at path.
func LoadStore(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadStore(f)
}

// ReadStore deserializes a store written by WriteStore.
func ReadStore(r io.Reader) (*Store, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [6]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadContainer, err)
	}
	if magic != storeMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadContainer, magic[:])
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadContainer, err)
	}
	if ver != storeVersion {
		return nil, fmt.Errorf("%w: version %d, this build reads %d — re-pack the content with volpack", ErrBadContainer, ver, storeVersion)
	}
	get := func() (uint64, error) { return binary.ReadUvarint(br) }
	getF := func() (float64, error) {
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
	}
	fps, err := get()
	if err != nil {
		return nil, fmt.Errorf("%w: fps: %v", ErrBadContainer, err)
	}
	nFrames, err := get()
	if err != nil {
		return nil, fmt.Errorf("%w: frames: %v", ErrBadContainer, err)
	}
	if nFrames > 1<<20 {
		return nil, fmt.Errorf("%w: implausible frame count %d", ErrBadContainer, nFrames)
	}
	size, err := getF()
	if err != nil || size <= 0 || math.IsNaN(size) {
		return nil, fmt.Errorf("%w: cell size", ErrBadContainer)
	}
	var o [3]float64
	for i := range o {
		if o[i], err = getF(); err != nil {
			return nil, fmt.Errorf("%w: origin", ErrBadContainer)
		}
	}
	var dims [3]uint64
	for i := range dims {
		if dims[i], err = get(); err != nil || dims[i] == 0 || dims[i] > 1<<20 {
			return nil, fmt.Errorf("%w: dims", ErrBadContainer)
		}
	}
	origin := geom.V(o[0], o[1], o[2])
	bounds := geom.AABB{
		Min: origin,
		Max: origin.Add(geom.V(float64(dims[0])*size, float64(dims[1])*size, float64(dims[2])*size)),
	}
	grid, err := cell.NewGrid(bounds, size)
	if err != nil {
		return nil, err
	}
	if nx, ny, nz := grid.Dims(); uint64(nx) != dims[0] || uint64(ny) != dims[1] || uint64(nz) != dims[2] {
		return nil, fmt.Errorf("%w: grid reconstruction mismatch", ErrBadContainer)
	}
	nStrides, err := get()
	if err != nil || nStrides == 0 || nStrides > 64 {
		return nil, fmt.Errorf("%w: strides", ErrBadContainer)
	}
	strides := make([]int, nStrides)
	for i := range strides {
		v, err := get()
		if err != nil || v == 0 || v > 1024 {
			return nil, fmt.Errorf("%w: stride value", ErrBadContainer)
		}
		strides[i] = int(v)
	}
	lad := tier.New(strides)
	var frames []*FrameBlocks
	maxCells := grid.NumCells()
	for f := uint64(0); f < nFrames; f++ {
		nOcc, err := get()
		if err != nil || nOcc > uint64(maxCells) {
			return nil, fmt.Errorf("%w: frame %d occupancy", ErrBadContainer, f)
		}
		occ := cell.NewSet(maxCells)
		prev := int64(0)
		for i := uint64(0); i < nOcc; i++ {
			d, err := get()
			if err != nil {
				return nil, fmt.Errorf("%w: frame %d ids", ErrBadContainer, f)
			}
			prev += int64(d)
			if prev < 0 || prev >= int64(maxCells) {
				return nil, fmt.Errorf("%w: frame %d cell id %d", ErrBadContainer, f, prev)
			}
			occ.Add(cell.ID(prev))
		}
		n, err := get()
		if err != nil || n > nOcc {
			return nil, fmt.Errorf("%w: frame %d block count", ErrBadContainer, f)
		}
		full := make(map[cell.ID]*codec.Block, n)
		for i := uint64(0); i < n; i++ {
			layers, err := get()
			if err != nil || layers == 0 || layers > 16 {
				return nil, fmt.Errorf("%w: frame %d block layers", ErrBadContainer, f)
			}
			layerPoints := make([]int, layers)
			for t := range layerPoints {
				np, err := get()
				if err != nil || np > math.MaxInt32 {
					return nil, fmt.Errorf("%w: frame %d layer points", ErrBadContainer, f)
				}
				layerPoints[t] = int(np)
			}
			plen, err := get()
			if err != nil || plen > 64<<20 {
				return nil, fmt.Errorf("%w: frame %d payload length", ErrBadContainer, f)
			}
			data := make([]byte, plen)
			if _, err := io.ReadFull(br, data); err != nil {
				return nil, fmt.Errorf("%w: frame %d payload: %v", ErrBadContainer, f, err)
			}
			blk, err := codec.ParseBlock(data, layerPoints)
			if err != nil {
				return nil, fmt.Errorf("%w: frame %d block: %v", ErrBadContainer, f, err)
			}
			if !occ.Contains(blk.CellID) {
				return nil, fmt.Errorf("%w: frame %d block for unoccupied cell %d", ErrBadContainer, f, blk.CellID)
			}
			full[blk.CellID] = blk
		}
		frames = append(frames, &FrameBlocks{Occupied: occ, ByStride: rungMaps(full, lad)})
	}
	return builtStore(grid, strides, int(fps), frames), nil
}

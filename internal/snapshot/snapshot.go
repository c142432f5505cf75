// Package snapshot persists columnar tables and TPC-H datasets in a
// compact binary format, so large generated datasets (an SF 1 build
// takes a minute of CPU) can be written once and reloaded in seconds —
// the role HDFS played for data distribution in the paper's cluster.
//
// Format (little endian):
//
//	file   := magic u32 | version u16 | name str | ncols u16 | column*
//	column := name str | type u8 | rows u32 | payload
//	str    := len u16 | bytes
//
// Int64/Float64 payloads are raw 8-byte values; dates are 4-byte; bools
// are single bytes; string columns are a dictionary (count u32, str*)
// followed by 4-byte codes. A CRC-less format keeps it simple; a
// truncated or corrupt file fails with a descriptive error.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"wimpi/internal/colstore"
	"wimpi/internal/tpch"
)

const (
	magic   = 0x57494D50 // "WIMP"
	version = 1
)

// WriteTable serializes t to w.
func WriteTable(w io.Writer, t *colstore.Table) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if err := binary.Write(bw, binary.LittleEndian, uint32(magic)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(version)); err != nil {
		return err
	}
	if err := writeStr(bw, t.Name); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(t.NumCols())); err != nil {
		return err
	}
	for i, f := range t.Schema {
		if err := writeStr(bw, f.Name); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(f.Type)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(t.NumRows())); err != nil {
			return err
		}
		if err := writeColumn(bw, t.Cols[i]); err != nil {
			return fmt.Errorf("snapshot: column %s: %w", f.Name, err)
		}
	}
	return bw.Flush()
}

func writeColumn(w *bufio.Writer, c colstore.Column) error {
	switch col := c.(type) {
	case *colstore.Int64s:
		for _, v := range col.V {
			if err := binary.Write(w, binary.LittleEndian, v); err != nil {
				return err
			}
		}
	case *colstore.Float64s:
		for _, v := range col.V {
			if err := binary.Write(w, binary.LittleEndian, math.Float64bits(v)); err != nil {
				return err
			}
		}
	case *colstore.Dates:
		for _, v := range col.V {
			if err := binary.Write(w, binary.LittleEndian, v); err != nil {
				return err
			}
		}
	case *colstore.Bools:
		for _, v := range col.V {
			b := byte(0)
			if v {
				b = 1
			}
			if err := w.WriteByte(b); err != nil {
				return err
			}
		}
	case *colstore.Strings:
		vals := col.Dict.Values()
		if err := binary.Write(w, binary.LittleEndian, uint32(len(vals))); err != nil {
			return err
		}
		for _, v := range vals {
			if err := writeStr(w, v); err != nil {
				return err
			}
		}
		for _, code := range col.Codes {
			if err := binary.Write(w, binary.LittleEndian, code); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unsupported column type %T", c)
	}
	return nil
}

// ReadTable deserializes a table from r.
func ReadTable(r io.Reader) (*colstore.Table, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var m uint32
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("snapshot: read magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("snapshot: bad magic 0x%08X", m)
	}
	var ver uint16
	if err := binary.Read(br, binary.LittleEndian, &ver); err != nil {
		return nil, err
	}
	if ver != version {
		return nil, fmt.Errorf("snapshot: unsupported version %d", ver)
	}
	name, err := readStr(br)
	if err != nil {
		return nil, err
	}
	var ncols uint16
	if err := binary.Read(br, binary.LittleEndian, &ncols); err != nil {
		return nil, err
	}
	schema := make(colstore.Schema, ncols)
	cols := make([]colstore.Column, ncols)
	for i := 0; i < int(ncols); i++ {
		cname, err := readStr(br)
		if err != nil {
			return nil, err
		}
		tb, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		var rows uint32
		if err := binary.Read(br, binary.LittleEndian, &rows); err != nil {
			return nil, err
		}
		ty := colstore.Type(tb)
		col, err := readColumn(br, ty, int(rows))
		if err != nil {
			return nil, fmt.Errorf("snapshot: column %s: %w", cname, err)
		}
		schema[i] = colstore.Field{Name: cname, Type: ty}
		cols[i] = col
	}
	return colstore.NewTable(name, schema, cols)
}

func readColumn(r *bufio.Reader, ty colstore.Type, rows int) (colstore.Column, error) {
	switch ty {
	case colstore.Int64:
		v := make([]int64, rows)
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return nil, err
		}
		return &colstore.Int64s{V: v}, nil
	case colstore.Float64:
		bits := make([]uint64, rows)
		if err := binary.Read(r, binary.LittleEndian, bits); err != nil {
			return nil, err
		}
		v := make([]float64, rows)
		for i, b := range bits {
			v[i] = math.Float64frombits(b)
		}
		return &colstore.Float64s{V: v}, nil
	case colstore.Date:
		v := make([]int32, rows)
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return nil, err
		}
		return &colstore.Dates{V: v}, nil
	case colstore.Bool:
		raw := make([]byte, rows)
		if _, err := io.ReadFull(r, raw); err != nil {
			return nil, err
		}
		v := make([]bool, rows)
		for i, b := range raw {
			v[i] = b != 0
		}
		return &colstore.Bools{V: v}, nil
	case colstore.String:
		var n uint32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return nil, err
		}
		dict := colstore.NewDict()
		for i := 0; i < int(n); i++ {
			s, err := readStr(r)
			if err != nil {
				return nil, err
			}
			if int(dict.Add(s)) != i {
				return nil, fmt.Errorf("duplicate dictionary value %q", s)
			}
		}
		codes := make([]int32, rows)
		if err := binary.Read(r, binary.LittleEndian, codes); err != nil {
			return nil, err
		}
		for _, c := range codes {
			if c < 0 || int(c) >= dict.Len() {
				return nil, fmt.Errorf("dictionary code %d out of range", c)
			}
		}
		return &colstore.Strings{Codes: codes, Dict: dict}, nil
	default:
		return nil, fmt.Errorf("unknown column type %d", ty)
	}
}

func writeStr(w *bufio.Writer, s string) error {
	if len(s) > 0xFFFF {
		return fmt.Errorf("snapshot: string too long (%d bytes)", len(s))
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readStr(r *bufio.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// SaveDataset writes every table of d into dir (one .wimpi file per
// table) plus a manifest recording the generation parameters.
func SaveDataset(dir string, d *tpch.Dataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, t := range d.Tables {
		f, err := os.Create(filepath.Join(dir, name+".wimpi"))
		if err != nil {
			return err
		}
		if err := WriteTable(f, t); err != nil {
			f.Close()
			return fmt.Errorf("snapshot: save %s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	manifest := fmt.Sprintf("sf=%g\nseed=%d\n", d.Config.SF, d.Config.Seed)
	return os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte(manifest), 0o644)
}

// LoadDataset reads a dataset previously written by SaveDataset.
func LoadDataset(dir string) (*tpch.Dataset, error) {
	mf, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	var cfg tpch.Config
	if _, err := fmt.Sscanf(string(mf), "sf=%g\nseed=%d", &cfg.SF, &cfg.Seed); err != nil {
		return nil, fmt.Errorf("snapshot: parse manifest: %w", err)
	}
	d := &tpch.Dataset{Tables: make(map[string]*colstore.Table, len(tpch.TableNames)), Config: cfg}
	for _, name := range tpch.TableNames {
		f, err := os.Open(filepath.Join(dir, name+".wimpi"))
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		t, err := ReadTable(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("snapshot: load %s: %w", name, err)
		}
		d.Tables[name] = t
	}
	return d, nil
}

// Command volpack manages encoded volcast content:
//
//	volpack pack   -o content.vcstor [-frames 90] [-points 100000] [-performers 3]
//	    synthesize a video, encode it at the standard stride ladder and
//	    write the store container (volserve can load it instead of
//	    re-encoding at startup).
//	volpack pack   -ply dir/ -o content.vcstor
//	    encode a directory of PLY frames (e.g. an 8i capture) instead of
//	    synthetic content; files are taken in lexical order.
//	volpack info   content.vcstor
//	    print the container's shape and bitrates.
//	volpack export content.vcstor -frame 0 -o frame0.ply
//	    decode one frame back to a PLY any viewer can open.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/pointcloud"
	"volcast/internal/vivo"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "pack":
		err = runPack(os.Args[2:])
	case "info":
		err = runInfo(os.Args[2:])
	case "export":
		err = runExport(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		log.Fatal("volpack: ", err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: volpack <pack|info|export> [flags]")
	os.Exit(2)
}

func runPack(args []string) error {
	fs := flag.NewFlagSet("pack", flag.ExitOnError)
	out := fs.String("o", "content.vcstor", "output container path")
	frames := fs.Int("frames", 90, "synthetic frames")
	points := fs.Int("points", 100_000, "synthetic points per frame")
	performers := fs.Int("performers", 1, "synthetic humanoids")
	seed := fs.Int64("seed", 1, "synthetic seed")
	plyDir := fs.String("ply", "", "directory of PLY frames (overrides synthesis)")
	cellSize := fs.Float64("cell", cell.Size50, "cell edge length (m)")
	fs.Parse(args)

	var video *pointcloud.Video
	if *plyDir != "" {
		v, err := loadPLYDir(*plyDir)
		if err != nil {
			return err
		}
		video = v
		log.Printf("volpack: loaded %d PLY frames from %s", len(video.Frames), *plyDir)
	} else {
		video = pointcloud.Stage{Frames: *frames, Points: *points, Performers: *performers, Seed: *seed}.Video()
	}
	store, err := vivo.BuildVideo(video, *cellSize, codec.NewEncoder(codec.DefaultParams()), []int{1, 2, 3, 4})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := vivo.WriteStore(f, store); err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	log.Printf("volpack: wrote %s (%.1f MB, %d frames, %.0f Mbps at 30 FPS)",
		*out, float64(info.Size())/1e6, store.NumFrames(),
		codec.BitrateMbps(store.AvgFrameBytes(), 30))
	return nil
}

// loadPLYDir reads every .ply in dir (lexical order) as one video frame.
func loadPLYDir(dir string) (*pointcloud.Video, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(strings.ToLower(e.Name()), ".ply") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no .ply files in %s", dir)
	}
	sort.Strings(names)
	v := &pointcloud.Video{Name: filepath.Base(dir), FPS: 30}
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		c, err := pointcloud.ReadPLY(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		v.Frames = append(v.Frames, c)
	}
	return v, nil
}

func runInfo(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("info needs a container path")
	}
	store, err := vivo.LoadStore(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("frames       %d at %d FPS (%.1f s looped)\n",
		store.NumFrames(), store.FPS(),
		float64(store.NumFrames())/float64(store.FPS()))
	nx, ny, nz := store.Grid().Dims()
	fmt.Printf("grid         %dx%dx%d cells of %.0f cm\n", nx, ny, nz, store.Grid().Size()*100)
	fmt.Printf("strides      %v\n", store.Strides())
	fmt.Printf("frame bytes  %.0f KB avg (full density)\n", store.AvgFrameBytes()/1e3)
	fmt.Printf("bitrate      %.0f Mbps at 30 FPS\n", codec.BitrateMbps(store.AvgFrameBytes(), 30))
	occ := store.Frame(0).Occupied.Count()
	fmt.Printf("occupancy    %d cells in frame 0\n", occ)
	return nil
}

func runExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	frame := fs.Int("frame", 0, "frame index to export")
	out := fs.String("o", "frame.ply", "output PLY path")
	ascii := fs.Bool("ascii", false, "write ascii PLY instead of binary")
	if len(args) < 1 {
		return fmt.Errorf("export needs a container path")
	}
	fs.Parse(args[1:])
	store, err := vivo.LoadStore(args[0])
	if err != nil {
		return err
	}
	var dec codec.Decoder
	cloud, err := dec.DecodeFrame(store.Frame(*frame).ByStride[1])
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pointcloud.WritePLY(f, cloud, !*ascii); err != nil {
		return err
	}
	log.Printf("volpack: exported frame %d (%d points) to %s", *frame, cloud.Len(), *out)
	return nil
}

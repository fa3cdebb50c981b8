// Command vpm-trace generates and inspects synthetic packet traces
// (the CAIDA substitute: docs/PAPER-MAP.md's "CAIDA Tier-1 traces" row).
//
// Usage:
//
//	vpm-trace gen  -o trace.vpmtrc [-rate 100000] [-duration 1s] [-paths 1] [-seed 1]
//	vpm-trace info -i trace.vpmtrc
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vpm/internal/packet"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		gen(os.Args[2:])
	case "info":
		info(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: vpm-trace gen|info [flags]")
	os.Exit(2)
}

func gen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var (
		out      = fs.String("o", "trace.vpmtrc", "output file")
		rate     = fs.Float64("rate", 100000, "packets/second per path")
		duration = fs.Duration("duration", time.Second, "trace duration")
		paths    = fs.Int("paths", 1, "number of origin-prefix paths")
		seed     = fs.Uint64("seed", 1, "generator seed")
	)
	fs.Parse(args)

	cfg := trace.Config{Seed: *seed, DurationNS: duration.Nanoseconds()}
	for i := 0; i < *paths; i++ {
		spec := trace.DefaultPath(*rate)
		spec.SrcPrefix = packet.MakePrefix(10, byte(1+i), 0, 0, 16)
		spec.DstPrefix = packet.MakePrefix(172, byte(16+i), 0, 0, 16)
		cfg.Paths = append(cfg.Paths, spec)
	}
	pkts, err := trace.Generate(cfg)
	check(err)
	f, err := os.Create(*out)
	check(err)
	defer f.Close()
	check(trace.Write(f, pkts))
	fmt.Printf("wrote %d packets (%d paths, %v) to %s\n", len(pkts), *paths, *duration, *out)
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "trace.vpmtrc", "input file")
	fs.Parse(args)

	f, err := os.Open(*in)
	check(err)
	defer f.Close()
	pkts, err := trace.Read(f)
	check(err)
	if len(pkts) == 0 {
		fmt.Println("empty trace")
		return
	}
	sizes := make([]float64, len(pkts))
	tcp := 0
	pathSet := map[packet.PathKey]int{}
	for i := range pkts {
		sizes[i] = float64(pkts[i].TotalLen)
		if pkts[i].Proto == packet.ProtoTCP {
			tcp++
		}
		key := packet.PathKey{
			Src: packet.MakePrefix(pkts[i].Src[0], pkts[i].Src[1], 0, 0, 16),
			Dst: packet.MakePrefix(pkts[i].Dst[0], pkts[i].Dst[1], 0, 0, 16),
		}
		pathSet[key]++
	}
	dur := time.Duration(pkts[len(pkts)-1].SentAt - pkts[0].SentAt)
	s := stats.Summarize(sizes)
	fmt.Printf("packets:   %d over %v (%.0f pkt/s)\n", len(pkts), dur.Round(time.Millisecond),
		float64(len(pkts))/dur.Seconds())
	fmt.Printf("sizes:     mean %.0fB p50 %.0fB p99 %.0fB\n", s.Mean, s.P50, s.P99)
	fmt.Printf("protocols: %.1f%% TCP, %.1f%% UDP\n",
		float64(tcp)/float64(len(pkts))*100, float64(len(pkts)-tcp)/float64(len(pkts))*100)
	fmt.Printf("paths (/16 pairs): %d\n", len(pathSet))
	for key, n := range pathSet {
		fmt.Printf("  %v: %d packets\n", key, n)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpm-trace:", err)
		os.Exit(1)
	}
}

package npb

import (
	"fmt"

	"tireplay/internal/mpi"
)

// LU operation volumes, derived from the published NPB operation counts
// (LU class A totals ~119.3 Gflop for 250 iterations over 64^3 points, i.e.
// ~1340 flop per grid point and iteration) and split across the phases of
// one SSOR iteration: the lower and upper triangular sweeps (jacld+blts and
// jacu+buts, the pipelined wavefronts), the right-hand-side computation with
// its boundary exchange, and the solution update.
const (
	// flopsBLTSPerPoint is the jacld+blts work per grid point.
	flopsBLTSPerPoint = 430
	// flopsBUTSPerPoint is the jacu+buts work per grid point.
	flopsBUTSPerPoint = 430
	// flopsRHSPerPoint is the rhs work per grid point.
	flopsRHSPerPoint = 400
	// flopsUpdatePerPoint is the ssor update (add) work per grid point.
	flopsUpdatePerPoint = 80
	// flopsNormPerPoint is the l2norm work per grid point.
	flopsNormPerPoint = 10
	// flopsSetupPerPoint is the one-time initialisation work per point.
	flopsSetupPerPoint = 60

	// bytesPerPoint is the message payload per interface point: the five
	// flow variables in double precision.
	bytesPerPoint = 5 * 8

	// inputBcastBytes is the size of the broadcast of the input parameters
	// (read_input) and of the final verification values.
	inputBcastBytes = 40

	// normCommBytes is the payload of the convergence all-reduce: the five
	// residual norms.
	normCommBytes = 5 * 8

	// inormDefault is the interval (in iterations) between convergence
	// checks.
	inormDefault = 50
)

// LUConfig describes one LU instance.
type LUConfig struct {
	Class Class
	Procs int
}

// luGeometry is the per-rank decomposition of an LU instance.
type luGeometry struct {
	xdim, ydim int
	col, row   int
	nx, ny, nz int
	north      int // rank above (row-1), -1 if none
	south      int
	west       int
	east       int
}

func (cfg LUConfig) geometry(rank int) (luGeometry, error) {
	xdim, ydim, err := grid2D(cfg.Procs)
	if err != nil {
		return luGeometry{}, err
	}
	n := cfg.Class.N
	if n < xdim || n < ydim {
		return luGeometry{}, fmt.Errorf("npb: class %s grid (%d^3) smaller than process grid %dx%d",
			cfg.Class.Name, n, xdim, ydim)
	}
	g := luGeometry{xdim: xdim, ydim: ydim}
	g.col = rank % xdim
	g.row = rank / xdim
	g.nx = split(n, xdim)[g.col]
	g.ny = split(n, ydim)[g.row]
	g.nz = n
	g.north, g.south, g.west, g.east = -1, -1, -1, -1
	if g.row > 0 {
		g.north = rank - xdim
	}
	if g.row < ydim-1 {
		g.south = rank + xdim
	}
	if g.col > 0 {
		g.west = rank - 1
	}
	if g.col < xdim-1 {
		g.east = rank + 1
	}
	return g, nil
}

// Validate checks the configuration without building the program.
func (cfg LUConfig) Validate() error {
	_, err := cfg.geometry(0)
	return err
}

// LU builds the LU benchmark skeleton: a pipelined SSOR solver on a 2D
// process grid sweeping 2D wavefronts across the z planes, with the
// communication structure of NPB 3.3:
//
//   - read_input: a broadcast of the run parameters;
//   - per iteration: the rhs computation preceded by an exchange_3-style
//     four-neighbour face exchange (Irecv/Send/Wait), the lower-triangular
//     wavefront (for each z plane: receive from north and west, compute,
//     send to south and east — exchange_1 with blocking calls), the upper
//     wavefront in the reverse direction, and the solution update;
//   - every inorm iterations and at the end: an l2norm all-reduce;
//   - verification: a final broadcast.
func LU(cfg LUConfig) (mpi.Program, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return func(c mpi.Comm) {
		g, err := cfg.geometry(c.Rank())
		if err != nil {
			panic(err)
		}
		points := float64(g.nx * g.ny * g.nz)
		planePoints := float64(g.nx * g.ny)

		// read_input: rank 0 broadcasts the run parameters.
		c.Bcast(inputBcastBytes)
		// Field initialisation and the initial residual norm.
		c.Compute(points * flopsSetupPerPoint)
		c.Allreduce(normCommBytes, points*flopsNormPerPoint)

		for iter := 1; iter <= cfg.Class.Iters; iter++ {
			// rhs with exchange_3 boundary exchange.
			exchange3(c, g)
			c.Compute(points * flopsRHSPerPoint)

			// Lower-triangular wavefront (jacld + blts), plane by plane.
			for k := 0; k < g.nz; k++ {
				if g.north >= 0 {
					c.Recv(g.north)
				}
				if g.west >= 0 {
					c.Recv(g.west)
				}
				c.Compute(planePoints * flopsBLTSPerPoint)
				if g.south >= 0 {
					c.Send(g.south, float64(g.nx*bytesPerPoint))
				}
				if g.east >= 0 {
					c.Send(g.east, float64(g.ny*bytesPerPoint))
				}
			}
			// Upper-triangular wavefront (jacu + buts), reverse direction.
			for k := g.nz - 1; k >= 0; k-- {
				if g.south >= 0 {
					c.Recv(g.south)
				}
				if g.east >= 0 {
					c.Recv(g.east)
				}
				c.Compute(planePoints * flopsBUTSPerPoint)
				if g.north >= 0 {
					c.Send(g.north, float64(g.nx*bytesPerPoint))
				}
				if g.west >= 0 {
					c.Send(g.west, float64(g.ny*bytesPerPoint))
				}
			}
			// Solution update.
			c.Compute(points * flopsUpdatePerPoint)
			// Convergence check.
			if iter%inormDefault == 0 || iter == cfg.Class.Iters {
				c.Allreduce(normCommBytes, points*flopsNormPerPoint)
			}
		}
		// Verification values are broadcast from rank 0.
		c.Bcast(inputBcastBytes)
	}, nil
}

// exchange3 performs the four-neighbour ghost-face exchange of the rhs
// computation: asynchronous receives are posted first, then the faces are
// sent, then the receives are completed — the structure of NPB's
// exchange_3.
func exchange3(c mpi.Comm, g luGeometry) {
	type nb struct {
		rank  int
		bytes float64
	}
	nsFace := float64(g.nx * g.nz * bytesPerPoint)
	weFace := float64(g.ny * g.nz * bytesPerPoint)
	neighbours := []nb{
		{g.north, nsFace}, {g.south, nsFace},
		{g.west, weFace}, {g.east, weFace},
	}
	var reqs []mpi.Request
	for _, n := range neighbours {
		if n.rank >= 0 {
			reqs = append(reqs, c.Irecv(n.rank))
		}
	}
	for _, n := range neighbours {
		if n.rank >= 0 {
			c.Send(n.rank, n.bytes)
		}
	}
	for _, r := range reqs {
		c.Wait(r)
	}
}

// TotalFlops sums the computation volumes of the whole instance: the setup,
// the per-iteration sweeps and the convergence norms, across all ranks.
func (cfg LUConfig) TotalFlops() float64 {
	n := float64(cfg.Class.N)
	points := n * n * n
	perIter := points * (flopsBLTSPerPoint + flopsBUTSPerPoint + flopsRHSPerPoint + flopsUpdatePerPoint)
	norms := 0.0
	for i := 1; i <= cfg.Class.Iters; i++ {
		if i%inormDefault == 0 || i == cfg.Class.Iters {
			norms++
		}
	}
	return points*flopsSetupPerPoint + perIter*float64(cfg.Class.Iters) +
		(norms+1)*points*flopsNormPerPoint
}

// LUStats predicts the shape of an LU acquisition analytically, without
// running it: the number of time-independent actions per rank and in total,
// and the exact size of the textual trace. The large-trace experiment of
// Section 6.5 uses it to extend measured small-scale traces to class D on
// 1024 processes, and the tests pin it against real extractions.
type LUStats struct {
	ActionsPerRank []int64
	TotalActions   int64
}

// Stats computes the per-rank action counts of the skeleton.
func (cfg LUConfig) Stats() (*LUStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := &LUStats{ActionsPerRank: make([]int64, cfg.Procs)}
	for rank := 0; rank < cfg.Procs; rank++ {
		g, err := cfg.geometry(rank)
		if err != nil {
			return nil, err
		}
		deg := 0
		for _, nb := range []int{g.north, g.south, g.west, g.east} {
			if nb >= 0 {
				deg++
			}
		}
		var n int64
		// comm_size, initial bcast, setup compute, initial allreduce.
		n += 4
		norms := int64(0)
		for iter := 1; iter <= cfg.Class.Iters; iter++ {
			if iter%inormDefault == 0 || iter == cfg.Class.Iters {
				norms++
			}
		}
		perIter := int64(0)
		// exchange3: Irecv+Send+Wait per neighbour, then the rhs compute.
		perIter += int64(3*deg) + 1
		// blts sweep: per plane, one compute plus one action per
		// neighbouring transfer in each direction of the dependency.
		inLow, outLow := 0, 0
		if g.north >= 0 {
			inLow++
		}
		if g.west >= 0 {
			inLow++
		}
		if g.south >= 0 {
			outLow++
		}
		if g.east >= 0 {
			outLow++
		}
		perIter += int64(g.nz) * int64(1+inLow+outLow)
		// buts sweep mirrors blts (its in-degree equals blts's out-degree
		// and vice versa).
		perIter += int64(g.nz) * int64(1+inLow+outLow)
		// update compute.
		perIter++
		// Phase-boundary merges: the extractor only emits a compute action
		// when an MPI call flushes the burst, so adjacent computations with
		// no communication between them merge into one action. At the
		// wavefront origin (no north/west neighbours) the rhs burst merges
		// into the first blts plane and the last buts burst merges into the
		// update; at the wavefront end (no south/east) the last blts burst
		// merges into the first buts plane.
		if inLow == 0 {
			perIter -= 2
		}
		if outLow == 0 {
			perIter--
		}
		n += perIter * int64(cfg.Class.Iters)
		// Convergence allreduces: the action itself plus no extra compute
		// action (the reduction work is part of the allReduce entry), but
		// the burst preceding it is merged into the update compute, so each
		// check adds exactly one action.
		n += norms
		// Final verification bcast.
		n++
		st.ActionsPerRank[rank] = n
		st.TotalActions += n
	}
	return st, nil
}

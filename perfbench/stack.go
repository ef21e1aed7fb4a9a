package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"anufs/internal/fleet"
	"anufs/internal/journal"
	"anufs/internal/live"
	"anufs/internal/obs"
	"anufs/internal/placement"
	"anufs/internal/replica"
	"anufs/internal/sdk"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// Flush policy: the anufsd defaults, identical on every run and every
// commit compared. Durability comes only from durable requests (a
// background checkpointer would put journal traffic under meta-read).
const (
	fsyncGather   = 2 * time.Millisecond
	snapshotEvery = 4096
	// standbyLease keeps the in-process standby from ever promoting: the
	// benchmark measures the primaries, not a failover.
	standbyLease = time.Hour
)

// policyLine and topologyLine are printed beside the metrics.
var (
	policyLine = fmt.Sprintf("flush policy: fsync gather window %s, snapshot every %d journal entries, "+
		"semi-sync shipping d0 -> standby (degrade after %s), no background checkpointer",
		fsyncGather, snapshotEvery, replica.DefaultSyncTimeout)
	topologyLine = "topology: 2 fleet daemons (authority on d0), each 1 live server at speed 1, OpCost 0, " +
		"tuning parked, own journal dir, store latency 0; 1 in-process standby fed by d0 only; 1 sdk gateway; one process"
)

// daemon is one in-process anufsd: journal, durable disk, live cluster,
// wire server and fleet member — the shape cmd/anufsd assembles.
type daemon struct {
	id      int
	dir     string
	addr    string
	reg     *obs.Registry
	jnl     *journal.Journal
	durable *sharedisk.Durable
	disk    sharedisk.Disk // what the cluster and member see (timed when traced)
	clus    *live.Cluster
	srv     *wire.Server
	member  *fleet.Member
	shipper *replica.Shipper // d0 only
}

// stack is the system under test.
type stack struct {
	dir      string
	fileSets []string
	seams    *seams // nil on an untraced stack

	daemons [2]*daemon
	auth    *fleet.Authority

	standbyDir string
	standbyJnl *journal.Journal
	recv       *replica.Receiver

	gw     *sdk.Gateway
	gwLn   net.Listener
	gwAddr string
	gwReg  *obs.Registry
}

// bootStack starts the whole stack under dir (which must not exist yet),
// with each file set first placed on the daemon place names. A non-nil
// seams installs the timing wrappers.
func bootStack(dir string, fileSets []string, place map[string]int, sm *seams) (_ *stack, err error) {
	s := &stack{dir: dir, fileSets: fileSets, seams: sm, standbyDir: filepath.Join(dir, "standby")}
	defer func() {
		if err != nil {
			s.stop()
		}
	}()

	// The standby listens before the primary's first gated append.
	j, st, _, err := journal.Open(s.standbyDir, journal.Options{FsyncInterval: fsyncGather, Obs: obs.New()})
	if err != nil {
		return nil, fmt.Errorf("standby journal: %w", err)
	}
	s.standbyJnl = j
	s.recv, err = replica.NewReceiver(replica.ReceiverOptions{
		Journal: j, Images: st.Images(), Lease: standbyLease, SnapshotEvery: snapshotEvery,
	})
	if err != nil {
		return nil, fmt.Errorf("standby: %w", err)
	}
	standbyAddr, err := s.recv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("standby listen: %w", err)
	}

	infos := make([]placement.DaemonInfo, len(s.daemons))
	for i := range s.daemons {
		d, err := s.bootDaemon(i, standbyAddr)
		if err != nil {
			return nil, err
		}
		s.daemons[i] = d
		infos[i] = placement.DaemonInfo{ID: i, Addr: d.addr, Speed: 1}
	}

	// The authority journals every committed map through d0's durable
	// disk, as anufsd does, so map commits ride d0's journal and shipping.
	// It bypasses the timed disk: sharedisk.install_* times handoffs only.
	// The initial placement is pinned by seeding the authority with it.
	d0 := s.daemons[0]
	s.auth, err = fleet.NewAuthority(fleet.AuthorityConfig{
		Resume: &placement.ClusterMap{Epoch: 1, Daemons: infos, Assign: place},
		SelfID: 0,
		Persist: func(cm *placement.ClusterMap) error {
			im, err := fleet.EncodeMapImage(cm)
			if err != nil {
				return err
			}
			return d0.durable.Install(fleet.MapFileSet, im)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("authority: %w", err)
	}
	initial := s.auth.Map()
	for _, d := range s.daemons {
		// File sets exist on the owner's disk before its member starts, so
		// the member counts them ready (anufsd pre-creates them the same way).
		for _, fs := range initial.FileSetsOf(d.id) {
			if err := d.clus.CreateFileSet(fs); err != nil {
				return nil, fmt.Errorf("d%d create %s: %w", d.id, fs, err)
			}
		}
		mc := fleet.MemberConfig{ID: d.id, Cluster: d.clus, Disk: d.disk, Obs: d.reg}
		if d.id == 0 {
			mc.Authority = s.auth
		} else {
			mc.AuthorityAddr, mc.Addr, mc.Speed, mc.JournalDir = d0.addr, d.addr, 1, d.dir
		}
		if d.member, err = fleet.NewMember(mc, initial); err != nil {
			return nil, fmt.Errorf("d%d member: %w", d.id, err)
		}
		var h wire.FleetHandler = d.member
		if sm != nil {
			h = &timedFleet{Member: d.member, id: d.id, seams: sm}
		}
		d.srv.SetFleet(h)
		d.member.Start()
	}

	s.gwReg = obs.New()
	s.gwReg.SetNode("gateway")
	if s.gw, err = sdk.NewGateway(sdk.GatewayConfig{Authority: d0.addr, Obs: s.gwReg}); err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	if s.gwLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("gateway listen: %w", err)
	}
	s.gwAddr = s.gwLn.Addr().String()
	go s.gw.ServeListener(s.gwLn)
	return s, nil
}

// bootDaemon opens daemon i's journal, disk, cluster and wire server. The
// fleet member is attached once the authority exists.
func (s *stack) bootDaemon(i int, standbyAddr string) (*daemon, error) {
	d := &daemon{id: i, dir: filepath.Join(s.dir, fmt.Sprintf("d%d", i)), reg: obs.New()}
	d.reg.SetNode(fmt.Sprintf("daemon-%d", i))
	j, st, _, err := journal.Open(d.dir, journal.Options{FsyncInterval: fsyncGather, Obs: d.reg})
	if err != nil {
		return nil, fmt.Errorf("d%d journal: %w", i, err)
	}
	d.jnl = j
	var wal sharedisk.WAL = j
	if s.seams != nil {
		wal = &timedWAL{Journal: j, seams: s.seams}
	}
	d.durable = sharedisk.NewDurable(st, wal, snapshotEvery)
	d.disk = d.durable
	if s.seams != nil {
		d.disk = &timedDisk{Durable: d.durable, seams: s.seams}
	}
	if i == 0 {
		d.shipper, err = replica.NewShipper(replica.ShipperOptions{
			Addr: standbyAddr, Journal: j, Images: st.Images, Obs: d.reg, DaemonID: 0,
		})
		if err != nil {
			j.Close()
			return nil, fmt.Errorf("d0 shipper: %w", err)
		}
		d.shipper.Start()
		gate := d.shipper.WaitAcked
		if s.seams != nil {
			gate = s.seams.timedAckGate(gate)
		}
		j.SetAckGate(gate)
	}
	cfg := live.DefaultConfig()
	cfg.Window = time.Hour // tuning parked: one server, nothing to tune
	cfg.OpCost = 0
	cfg.Obs = d.reg
	if d.clus, err = live.NewCluster(cfg, d.disk, map[int]float64{0: 1}); err != nil {
		d.close()
		return nil, fmt.Errorf("d%d cluster: %w", i, err)
	}
	d.srv = wire.NewServer(d.clus)
	d.srv.SetJournalStats(j.Counters().Snapshot)
	if d.addr, err = d.srv.Listen("127.0.0.1:0"); err != nil {
		d.close()
		return nil, fmt.Errorf("d%d listen: %w", i, err)
	}
	return d, nil
}

// guard refuses a stack that carries a synthetic cost: the numbers must
// come from the real stack. It runs after the warm-up stats, whose apply
// spans show a synthetic OpCost (it sleeps before every apply).
func (s *stack) guard() error {
	for _, d := range s.daemons {
		if n := len(d.clus.Servers()); n != 1 {
			return fmt.Errorf("d%d runs %d live servers; the benchmark needs exactly 1", d.id, n)
		}
		fastestApply := time.Hour
		for _, sp := range d.reg.Spans.Snapshot(0) {
			if sp.Name == "apply" && sp.Op == "stat" {
				fastestApply = min(fastestApply, sp.Dur)
			}
		}
		if fastestApply >= 100*time.Microsecond {
			return fmt.Errorf("d%d: the fastest stat apply took %s: a synthetic OpCost is set", d.id, fastestApply)
		}
		under := d.disk
		if td, ok := under.(*timedDisk); ok {
			under = td.Durable
		}
		if _, ok := under.(*sharedisk.Durable); !ok {
			return fmt.Errorf("d%d disk is %T, not a journaled sharedisk.Durable", d.id, under)
		}
		// A store latency sleeps in every Load; the fastest of a few loads
		// shows it.
		owned := d.clus.Stats()[0].Owned
		if len(owned) == 0 {
			continue
		}
		fastest := time.Hour
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := d.disk.Load(owned[0]); err != nil {
				return fmt.Errorf("d%d load probe: %w", d.id, err)
			}
			fastest = min(fastest, time.Since(start))
		}
		if fastest >= time.Millisecond {
			return fmt.Errorf("d%d shared-disk load takes %s: a synthetic store latency is set", d.id, fastest)
		}
	}
	return nil
}

// stop tears the stack down without a final checkpoint, so what the
// journals hold is exactly what the program made durable on its own.
func (s *stack) stop() {
	if s.gwLn != nil {
		s.gwLn.Close()
	}
	if s.gw != nil {
		s.gw.Close()
	}
	for _, d := range s.daemons {
		if d != nil && d.member != nil {
			d.member.Stop()
		}
	}
	for _, d := range s.daemons {
		if d != nil {
			d.close()
		}
	}
	if s.recv != nil {
		s.recv.Stop()
	}
	if s.standbyJnl != nil {
		s.standbyJnl.Close()
	}
}

func (d *daemon) close() {
	if d.srv != nil {
		d.srv.Close()
	}
	if d.clus != nil {
		d.clus.Stop()
	}
	if d.shipper != nil {
		d.shipper.Stop()
	}
	if d.jnl != nil {
		d.jnl.Close()
	}
}

// preload writes every record of every file set through the fleet, then
// makes each file set durable with one checkpointing batch. It runs one
// batch at a time: concurrent first calls on a one-connection sdk pool
// make the router drop the pool under in-flight calls and retry them, and
// a retried create fails with "path exists".
func (s *stack) preload(records int) error {
	c, err := sdk.NewClient(sdk.Options{Authority: s.daemons[0].addr, PoolSize: 1})
	if err != nil {
		return fmt.Errorf("preload client: %w", err)
	}
	defer c.Close()
	const chunk = 64
	items := make([]wire.BatchItem, 0, chunk)
	recs := make([]sharedisk.Record, chunk)
	for _, fs := range s.fileSets {
		for lo := 0; lo < records; lo += chunk {
			hi := min(lo+chunk, records)
			items = items[:0]
			for r := lo; r < hi; r++ {
				recs[r-lo] = recordValue(r, 0)
				items = append(items, wire.BatchItem{Op: wire.OpCreate, Path: recordPath(r), Record: &recs[r-lo]})
			}
			res, err := c.Router().Batch(fs, hi == records, items)
			if err == nil {
				err = batchErr(res)
			}
			if err != nil {
				return fmt.Errorf("preload %s: %w", fs, err)
			}
		}
	}
	return nil
}

func batchErr(res []wire.BatchResult) error {
	for _, r := range res {
		if r.Err != "" {
			return errors.New(r.Err)
		}
	}
	return nil
}

// recoverImages reopens a stopped journal directory the way a restarted
// daemon does and returns its recovered images.
func recoverImages(dir string) (map[string]sharedisk.Image, error) {
	j, st, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return nil, err
	}
	images := st.Images()
	if err := j.Close(); err != nil {
		return nil, err
	}
	return images, nil
}

// removeAll deletes a work directory, ignoring one that is already gone.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: remove %s: %v\n", dir, err)
	}
}

// Command edgenode runs one live edge-blockchain node over real TCP —
// the paper's deployment style, minus Docker. All nodes of a deployment
// must share -roster-seed, -roster-size, -genesis and -epoch; each picks a
// distinct -index.
//
// Terminal A:
//
//	edgenode -index 0 -listen 127.0.0.1:7000 -epoch 1700000000
//
// Terminal B:
//
//	edgenode -index 1 -listen 127.0.0.1:7001 -peers 127.0.0.1:7000 \
//	         -epoch 1700000000 -publish 10s
//
// The demo roster derives every node's key pair deterministically from the
// roster seed; production deployments would distribute real public keys
// instead.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/block"
	"repro/internal/identity"
	"repro/internal/livenode"
	"repro/internal/pos"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(log.Ltime)
	var (
		index      = flag.Int("index", 0, "this node's position in the roster")
		rosterSeed = flag.Int64("roster-seed", 1, "seed deriving all roster key pairs (demo only)")
		rosterSize = flag.Int("roster-size", 5, "number of accounts in the roster")
		listen     = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		peersFlag  = flag.String("peers", "", "comma-separated peer addresses to connect to")
		t0         = flag.Duration("t0", 10*time.Second, "expected block interval")
		genesis    = flag.Int64("genesis", 42, "genesis seed (must match across the deployment)")
		epochUnix  = flag.Int64("epoch", 0, "shared epoch as unix seconds (must match; default: now, fine for the first node)")
		publish    = flag.Duration("publish", 0, "publish a demo data item this often (0 = never)")
		dataDir    = flag.String("data-dir", "", "directory for the durable block WAL and data store (empty = in-memory)")
		snapEvery  = flag.Int("snapshot-every", 0, "ledger snapshot and store checkpoint cadence in blocks: forks adopt incrementally and a restart re-verifies at most this many blocks (0 = default 32)")
		pruneDepth = flag.Int("prune-depth", 0, "finite-lifetime chain: discard block bodies this far below the tip, with checkpoint finality at the same interval (0 = keep everything)")
		bootSnap   = flag.Bool("bootstrap-snapshot", false, "on a fresh start, install the first peer's finalized state snapshot instead of syncing history from genesis")
		fsync      = flag.String("fsync", "batch", "WAL fsync policy: always|batch|none")
		metricsAdr = flag.String("metrics-addr", "", "HTTP address serving /metrics (JSON) and /debug/vars (expvar); empty = disabled")
		repairWrk  = flag.Int("repair-workers", 0, "concurrent background re-replication fetches (0 = repair disabled)")
		repairHyst = flag.Duration("repair-hysteresis", 0, "extra silence before a suspect peer is declared dead (0 = default 10s)")
	)
	flag.Parse()

	if *index < 0 || *index >= *rosterSize {
		log.Fatalf("index %d out of roster [0,%d)", *index, *rosterSize)
	}
	// Validate -fsync up front: a typo must be a startup error even when no
	// -data-dir makes the policy moot, not a silently ignored flag.
	policy, err := store.ParseSyncPolicy(*fsync)
	if err != nil {
		log.Fatal(err)
	}
	if *dataDir != "" {
		if st, err := os.Stat(*dataDir); err == nil && !st.IsDir() {
			log.Fatalf("-data-dir %s exists but is not a directory", *dataDir)
		}
	}
	rng := rand.New(rand.NewSource(*rosterSeed))
	idents := make([]*identity.Identity, *rosterSize)
	accounts := make([]identity.Address, *rosterSize)
	for i := range idents {
		idents[i] = identity.GenerateSeeded(rng)
		accounts[i] = idents[i].Address()
	}
	epoch := time.Now()
	if *epochUnix > 0 {
		epoch = time.Unix(*epochUnix, 0)
	}

	reg := telemetry.NewRegistry()

	var nodeStore store.Backend
	if *dataDir != "" {
		st, err := store.Open(*dataDir, store.Options{Sync: policy, Metrics: store.NewMetrics(reg)})
		if err != nil {
			log.Fatal(err)
		}
		if n := len(st.RecoveredBlocks()); n > 0 {
			log.Printf("recovered %d blocks from %s", n, *dataDir)
		}
		if _, _, h, ok := st.RecoveredSnapshot(); ok {
			log.Printf("recovered state snapshot at height %d from %s", h, *dataDir)
		}
		nodeStore = st
	}

	params := pos.DefaultParams()
	params.T0 = *t0
	node, err := livenode.New(livenode.Config{
		Identity:      idents[*index],
		Accounts:      accounts,
		PoS:           params,
		GenesisSeed:   *genesis,
		Epoch:         epoch,
		ListenAddr:    *listen,
		Store:         nodeStore,
		Telemetry:     reg,
		SnapshotEvery: *snapEvery,

		PruneDepth:        *pruneDepth,
		BootstrapSnapshot: *bootSnap,

		RepairWorkers:    *repairWrk,
		RepairHysteresis: *repairHyst,
		OnBlock: func(b *block.Block) {
			log.Printf("adopted block %d by %s (%d items)", b.Index, b.Miner.Short(), len(b.Items))
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	log.Printf("node %d (%s) listening on %s, epoch %d, t0 %v",
		*index, accounts[*index].Short(), node.Addr(), epoch.Unix(), *t0)

	if *metricsAdr != "" {
		go func() {
			log.Printf("metrics on http://%s/metrics (expvar at /debug/vars)", *metricsAdr)
			if err := http.ListenAndServe(*metricsAdr, telemetry.Handler(reg)); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	// One call for all of -peers: the connect-time locator probe then goes
	// to a fan-out sample of them, not to each.
	var peers []string
	for _, p := range strings.Split(*peersFlag, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	if err := node.Connect(peers...); err != nil {
		log.Print(err)
	}

	if *publish > 0 {
		go func() {
			seq := 0
			for range time.Tick(*publish) {
				seq++
				content := fmt.Sprintf("demo data %d from node %d at %s", seq, *index, time.Now())
				it, err := node.Publish([]byte(content), "Demo/Tick", "cli")
				if err != nil {
					log.Printf("publish: %v", err)
					continue
				}
				log.Printf("published %s (%d bytes)", it.ID.Short(), len(content))
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Printf("shutting down at height %d", node.Height())
}

// Datamarket: the paper's motivating scenario — vehicles selling road
// information directly to peers, with micro-payment records kept on the
// edge blockchain instead of a trusted cloud backend.
//
// A producer vehicle publishes congestion reports; the metadata lands in
// blocks, the reports themselves are replicated onto the optimally chosen
// storing vehicles, and consumer vehicles discover the reports by querying
// the metadata in their chain replica and fetch them from the nearest
// holder.
package main

import (
	"fmt"
	"log"
	"time"

	edgechain "repro"
)

func main() {
	cfg := edgechain.DefaultConfig(25)
	cfg.Seed = 7
	cfg.DataRatePerMin = 0 // we drive the workload by hand

	sys, err := edgechain.NewSimulation(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Vehicle 3 publishes a congestion report every 2 minutes.
	const seller = 3
	for i := 0; i < 10; i++ {
		at := time.Duration(i+1) * 2 * time.Minute
		sys.Clock().AfterFunc(at, func() {
			it, err := sys.ProduceData(seller, "Road/Congestion")
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("[%6s] vehicle %d published report %s\n",
				sys.Clock().Elapsed().Truncate(time.Second), seller, it.ID.Short())
		})
	}

	// Vehicle 17 shops the market at minute 25: it queries its chain
	// replica for fresh congestion reports and buys (fetches) each one.
	const buyer = 17
	sys.Clock().AfterFunc(25*time.Minute, func() {
		node := sys.Node(buyer)
		reports := sys.FindMetadata(buyer, edgechain.MetadataQuery{TypePrefix: "Road/"})
		fmt.Printf("[%6s] vehicle %d found %d road reports on-chain\n",
			sys.Clock().Elapsed().Truncate(time.Second), buyer, len(reports))
		for _, r := range reports {
			node.RequestData(r.ID)
			fmt.Printf("         requesting %s (producer %s, stored on %v)\n",
				r.ID.Short(), r.Producer.Short(), r.StoringNodes)
		}
	})

	sys.Run(30 * time.Minute)

	res := sys.Results()
	node := sys.Node(buyer)
	bought := 0
	for _, r := range sys.FindMetadata(buyer, edgechain.MetadataQuery{TypePrefix: "Road/"}) {
		if node.HasData(r.ID) {
			bought++
		}
	}
	fmt.Printf("\nmarket closed: %d blocks, buyer received %d reports, mean delivery %.2f s\n",
		res.ChainHeight, bought, res.DeliverySec)
	if bought == 0 {
		log.Fatal("buyer received nothing — market broken")
	}
}

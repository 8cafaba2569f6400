// Multi-user cluster walkthrough: a Philly-shaped 10-user workload on
// the paper's 200-GPU heterogeneous testbed, run under Gandiva_fair
// and under Tiresias-L, showing what user-level fairness buys — and
// that it costs no efficiency.
package main

import (
	"fmt"
	"log"
	"sort"

	gf "repro"
)

const horizon = gf.Time(2 * gf.Day)

func buildTrace() []gf.JobSpec {
	zoo := gf.DefaultZoo()
	mixes := map[gf.UserID][]string{
		"ads":      {"vae", "superres"},
		"vision":   {"resnet50", "densenet121"},
		"research": {"resnext50", "transformer"},
		"speech":   {"lstm", "gru"},
		"gans":     {"dcgan", "pix2pix", "cyclegan"},
		"mobile":   {"squeezenet", "vae"},
		"search":   {"transformer", "gru"},
		"video":    {"resnet50", "cyclegan"},
		"intern":   {"vae", "squeezenet"},
		"platform": {"resnext50", "densenet121"},
	}
	var users []gf.UserSpec
	var names []gf.UserID
	for u := range mixes {
		names = append(names, u)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	for _, u := range names {
		users = append(users, gf.UserSpec{
			User:               u,
			NumJobs:            60,
			ArrivalRatePerHour: 4,
			Models:             mixes[u],
			MeanK80Hours:       8,
		})
	}
	specs, err := gf.GenerateTrace(gf.DefaultZoo(), gf.TraceCfg{Seed: 2026, Users: users, MaxK80Hours: 24})
	if err != nil {
		log.Fatal(err)
	}
	_ = zoo
	return specs
}

func run(name string, p gf.Policy) *gf.Result {
	res, err := gf.Simulate(gf.Config{
		Cluster: gf.Default200Cluster(),
		Specs:   buildTrace(),
		Seed:    2026,
	}, p, horizon)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	return res
}

func main() {
	fair := run("gandiva-fair", gf.MustNewScheduler(gf.SchedulerConfig{EnableTrading: true}))
	tir := run("tiresias", gf.NewTiresias())

	fmt.Printf("%-14s %10s %10s %12s %14s\n", "policy", "finished", "util", "migrations", "max share err")
	for _, res := range []*gf.Result{fair, tir} {
		fmt.Printf("%-14s %10d %9.1f%% %12d %13.1f%%\n",
			res.Policy, len(res.Finished), 100*res.Utilization.Fraction(),
			res.Migrations, 100*res.MaxShareError())
	}

	fmt.Println("\nper-user GPU-hours under gandiva-fair (vs fair reference):")
	usage := fair.TotalUsageByUser()
	ref := fair.FairUsageByUser
	var users []gf.UserID
	for u := range usage {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	for _, u := range users {
		fmt.Printf("  %-9s got %7.0f GPU-h   entitled %7.0f GPU-h\n",
			u, usage[u]/3600, ref[u]/3600)
	}

	fmt.Println("\nper-generation utilization under gandiva-fair:")
	for _, g := range []gf.Generation{gf.K80, gf.P40, gf.P100, gf.V100} {
		if u, ok := fair.UtilByGen[g]; ok {
			fmt.Printf("  %-5v %5.1f%%\n", g, 100*u.Fraction())
		}
	}
}

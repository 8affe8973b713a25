package experiment

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	// ID is the short handle used by cmd/topobench (-run fig14).
	ID string
	// Paper names the artifact in the paper.
	Paper string
	// Title is a one-line description.
	Title string
	// Run produces the tables.
	Run func(Scale) ([]*Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig2", "Figure 2", "eCAN vs basic CAN logical hops", RunFig2},
		{"fig3", "Figure 3", "ERS vs hybrid nearest-neighbor search (tsk-large)", RunFig3},
		{"fig4", "Figure 4", "ERS alone at large budgets (tsk-large)", RunFig4},
		{"fig5", "Figure 5", "Hybrid nearest-neighbor search (tsk-small)", RunFig5},
		{"fig6", "Figure 6", "ERS alone (tsk-small)", RunFig6},
		{"fig10", "Figure 10", "Stretch vs #RTTs, tsk-large, GT-ITM latencies", RunFig10},
		{"fig11", "Figure 11", "Stretch vs #RTTs, tsk-large, manual latencies", RunFig11},
		{"fig12", "Figure 12", "Stretch vs #RTTs, tsk-small, GT-ITM latencies", RunFig12},
		{"fig13", "Figure 13", "Stretch vs #RTTs, tsk-small, manual latencies", RunFig13},
		{"fig14", "Figure 14", "Stretch vs overlay size, GT-ITM latencies", RunFig14},
		{"fig15", "Figure 15", "Stretch vs overlay size, manual latencies", RunFig15},
		{"fig16", "Figure 16", "Map condense/reduction rate", RunFig16},
		{"tab1", "Table 1", "Closest-node lookup procedure, traced", RunTab1},
		{"tab2", "Table 2", "Experiment parameters", RunTab2},
		{"figB", "Appendix Fig 17", "Hilbert landmark numbering, worked example", RunFigB},
		{"ext-load", "§6", "Load-aware neighbor selection ablation", RunExtLoad},
		{"ext-pubsub", "§5.2", "Maintenance: pub/sub vs polling vs reactive", RunExtPubSub},
		{"ext-chord", "Appendix", "Soft-state hosted on Chord", RunExtChord},
		{"ext-tacan", "§1", "Topologically-Aware CAN zone imbalance", RunExtTACAN},
		{"ext-groups", "§5.4", "Landmark groups against false clustering", RunExtGroups},
		{"ext-hier", "§5.4", "Hierarchical landmark spaces", RunExtHier},
		{"ext-failure", "§5.2", "Soft-state repair after member crashes", RunExtFailure},
		{"ext-churn", "§5.2", "Record recall under seeded churn fault plans", RunExtChurn},
		{"ext-selfheal", "§5.2", "Self-healing membership: crash, takeover, repair", RunExtSelfHeal},
		{"ext-pastry", "§7", "Proximity-neighbor selection on Pastry", RunExtPastry},
		{"ext-svd", "§5.4", "SVD denoising of noisy landmark vectors", RunExtSVD},
		{"ext-ordering", "§2", "Landmark-ordering clustering baseline", RunExtOrdering},
		{"ext-scale", "ROADMAP 1", "Figures 3-6 trends at 10^5-10^6 nodes, flat topology", RunExtScale},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

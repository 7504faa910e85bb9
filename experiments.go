package fpsa

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"fpsa/internal/device"
	"fpsa/internal/experiments"
)

// ExperimentIDs lists the reproducible paper artifacts plus the ablation
// studies grounded in the paper's §7 discussion, the
// compilation-autotuner sweep ("autotune") and the fault-injection
// reliability study ("faults"). Host wall-clock measurements are not
// experiments: they live in the repo benchmark (go run ./bench).
func ExperimentIDs() []string {
	ids := []string{
		"table1", "table2", "table3",
		"figure2", "figure6", "figure7", "figure8", "figure9",
		"ablation-transmission", "ablation-channels", "ablation-heteropes",
		"autotune", "faults",
	}
	sort.Strings(ids)
	return ids
}

// RunExperiment regenerates one paper table or figure and returns its text
// rendering. "all" runs everything. ctx bounds the long-running
// experiments (the place-and-route sweeps and the two studies).
func RunExperiment(ctx context.Context, id string) (string, error) {
	switch strings.ToLower(id) {
	case "table1":
		return experiments.RenderTable1(experiments.Table1(device.Params45nm)), nil
	case "table2":
		return experiments.RenderTable2(experiments.Table2(device.Params45nm)), nil
	case "table3":
		rows, err := experiments.Table3(64)
		if err != nil {
			return "", err
		}
		return experiments.RenderTable3(rows, 64), nil
	case "figure2":
		r, err := experiments.Figure2(nil)
		if err != nil {
			return "", err
		}
		return experiments.RenderFigure2(r), nil
	case "figure6":
		r, err := experiments.Figure6(nil)
		if err != nil {
			return "", err
		}
		return experiments.RenderFigure6(r), nil
	case "figure7":
		rows, err := experiments.Figure7()
		if err != nil {
			return "", err
		}
		return experiments.RenderFigure7(rows), nil
	case "figure8":
		rows, err := experiments.Figure8(nil)
		if err != nil {
			return "", err
		}
		return experiments.RenderFigure8(rows, experiments.Figure8Dups), nil
	case "figure9":
		r, err := experiments.Figure9(experiments.Figure9Options{})
		if err != nil {
			return "", err
		}
		return experiments.RenderFigure9(r), nil
	case "ablation-transmission":
		r, err := experiments.AblationTransmission()
		if err != nil {
			return "", err
		}
		return experiments.RenderAblationTransmission(r), nil
	case "ablation-channels":
		r, err := experiments.AblationChannelWidth(ctx, nil)
		if err != nil {
			return "", err
		}
		return experiments.RenderAblationChannelWidth(r), nil
	case "autotune":
		return autotuneStudy(ctx)
	case "faults":
		r, err := faultStudy(ctx)
		if err != nil {
			return "", err
		}
		return r.String(), nil
	case "ablation-heteropes":
		rows, err := experiments.AblationHeteroPEs(64)
		if err != nil {
			return "", err
		}
		return experiments.RenderAblationHeteroPEs(rows, 64), nil
	case "all":
		var b strings.Builder
		for _, one := range ExperimentIDs() {
			out, err := RunExperiment(ctx, one)
			if err != nil {
				return "", fmt.Errorf("fpsa: %s: %w", one, err)
			}
			b.WriteString(out)
			b.WriteString("\n")
		}
		return b.String(), nil
	default:
		return "", fmt.Errorf("%w: unknown experiment %q (known: %v, all)", ErrInvalidArgument, id, ExperimentIDs())
	}
}

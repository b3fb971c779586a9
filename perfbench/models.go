package main

import (
	"fmt"
	"math"

	"duet/internal/compiler"
	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/models"
	"duet/internal/partition"
	"duet/internal/runtime"
	"duet/internal/tensor"
	"duet/internal/workload"
)

// systemSeed is the build seed of the system under test: every engine is
// built with core.DefaultConfig(systemSeed), as duet-node's default -seed
// builds it. The benchmark's --seed drives only the generated inputs, and
// the zoo-build op, whose build configuration is its input.
const systemSeed = 42

// model pairs a zoo graph builder with its seeded input generator (nil for
// models zoo-build only builds).
type model struct {
	name   string
	graph  func() (*graph.Graph, error)
	inputs func(seed int64) map[string]*tensor.Tensor
}

func wideDeepModel(small bool) model {
	cfg := models.DefaultWideDeep()
	if small {
		cfg.ImageSize, cfg.SeqLen, cfg.Vocab, cfg.FFNWidth = 32, 8, 100, 64
	}
	return model{"widedeep",
		func() (*graph.Graph, error) { return models.WideDeep(cfg) },
		func(seed int64) map[string]*tensor.Tensor { return workload.WideDeepInputs(cfg, seed) }}
}

func mtdnnModel(small bool) model {
	cfg := models.DefaultMTDNN()
	if small {
		cfg.SeqLen, cfg.Layers, cfg.ModelDim, cfg.FFNDim, cfg.Heads, cfg.Vocab = 16, 1, 64, 128, 4, 100
	}
	return model{"mtdnn",
		func() (*graph.Graph, error) { return models.MTDNN(cfg) },
		func(seed int64) map[string]*tensor.Tensor { return workload.MTDNNInputs(cfg, seed) }}
}

// siameseConfig is the model duet-node serves for -model siamese; small
// mirrors the node's -small reduction exactly, so in-process references
// and the node compute from identical weights.
func siameseConfig(small bool) models.SiameseConfig {
	cfg := models.DefaultSiamese()
	if small {
		cfg.SeqLen, cfg.Hidden = 16, 64
	}
	return cfg
}

func siameseModel(small bool) model {
	cfg := siameseConfig(small)
	return model{"siamese",
		func() (*graph.Graph, error) { return models.Siamese(cfg) },
		func(seed int64) map[string]*tensor.Tensor { return workload.SiameseInputs(cfg, seed) }}
}

// zooModels returns the seven zoo models zoo-build builds.
func zooModels(small bool) []model {
	res18 := models.DefaultResNet(18)
	vgg := models.DefaultVGG()
	sq := models.DefaultSqueezeNet()
	gn := models.DefaultGoogLeNet()
	if small {
		res18.ImageSize, vgg.ImageSize, sq.ImageSize, gn.ImageSize = 32, 32, 64, 64
		vgg.Classes = 10
	}
	return []model{
		wideDeepModel(small), siameseModel(small), mtdnnModel(small),
		{name: "resnet18", graph: func() (*graph.Graph, error) { return models.ResNet(res18) }},
		{name: "vgg16", graph: func() (*graph.Graph, error) { return models.VGG(vgg) }},
		{name: "squeezenet", graph: func() (*graph.Graph, error) { return models.SqueezeNet(sq) }},
		{name: "googlenet", graph: func() (*graph.Graph, error) { return models.GoogLeNet(gn) }},
	}
}

// referenceEngine compiles the partition with fusion off. Its modules run
// op by op through Module.Execute, a path independent of the fused
// epilogue programs and the arena, which the fusion contract makes
// bit-identical to the engine under test.
func referenceEngine(part *partition.Partition, opt compiler.Options) (*runtime.Engine, error) {
	opt.Fusion = compiler.FusionOff
	return runtime.New(part, device.NewPlatform(0), opt)
}

// referenceOutputs computes the model's outputs for inputs on the
// reference engine.
func referenceOutputs(ref *runtime.Engine, inputs map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
	return execute(ref, inputs, func(i int, in map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
		return ref.Module(i).Execute(in)
	}, nil)
}

// execute runs eng's subgraphs in partition order through run, chaining
// boundary values the way runtime.Engine.Run does. With an arena it also
// returns each cross-subgraph value to ar after its last consumer ran, as
// the serial executor does.
func execute(eng *runtime.Engine, inputs map[string]*tensor.Tensor, run func(i int, in map[string]*tensor.Tensor) ([]*tensor.Tensor, error), ar *tensor.Arena) ([]*tensor.Tensor, error) {
	parent := eng.Parent
	values := make(map[graph.NodeID]*tensor.Tensor, parent.Len())
	uses := make(map[graph.NodeID]int)
	for _, id := range parent.InputIDs() {
		v, ok := inputs[parent.Node(id).Name]
		if !ok {
			return nil, fmt.Errorf("missing input %q", parent.Node(id).Name)
		}
		values[id] = v
		uses[id]++ // inputs belong to the caller
	}
	for _, o := range parent.Outputs() {
		uses[o]++ // outputs belong to the caller
	}
	subs := eng.Subgraphs()
	for _, sub := range subs {
		for _, pid := range sub.BoundaryInputs {
			uses[pid]++
		}
	}
	for i, sub := range subs {
		in := make(map[string]*tensor.Tensor, len(sub.BoundaryInputs))
		for _, pid := range sub.BoundaryInputs {
			in["in."+parent.Node(pid).Name] = values[pid]
		}
		outs, err := run(i, in)
		if err != nil {
			return nil, fmt.Errorf("executing %s: %w", sub.Graph.Name, err)
		}
		for oi, pid := range sub.Outputs {
			values[pid] = outs[oi]
		}
		if ar != nil {
			release(sub.BoundaryInputs, uses, values, ar)
		}
	}
	outs := make([]*tensor.Tensor, 0, len(parent.Outputs()))
	for _, o := range parent.Outputs() {
		outs = append(outs, values[o])
	}
	return outs, nil
}

// release returns consumed boundary values whose last reader has run to
// ar, unless another live value shares their storage (a reshape output
// aliases its operand).
func release(consumed []graph.NodeID, uses map[graph.NodeID]int, values map[graph.NodeID]*tensor.Tensor, ar *tensor.Arena) {
	for _, pid := range consumed {
		uses[pid]--
		v := values[pid]
		if uses[pid] != 0 || v == nil || len(v.Data()) == 0 {
			continue
		}
		shared := false
		for oid, o := range values {
			if oid != pid && o != nil && len(o.Data()) > 0 && &o.Data()[0] == &v.Data()[0] {
				shared = true
				break
			}
		}
		if !shared {
			ar.Release(v)
			delete(values, pid)
		}
	}
}

// sameBits reports the first difference between got and want, comparing
// shapes and every element's bit pattern.
func sameBits(got, want []*tensor.Tensor) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		if !tensor.ShapeEq(got[i].Shape(), want[i].Shape()) {
			return fmt.Errorf("output %d has shape %v, want %v", i, got[i].Shape(), want[i].Shape())
		}
		if err := sameData(got[i].Data(), want[i].Data()); err != nil {
			return fmt.Errorf("output %d: %w", i, err)
		}
	}
	return nil
}

func sameData(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			return fmt.Errorf("element %d is %v, want %v", j, got[j], want[j])
		}
	}
	return nil
}

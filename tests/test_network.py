"""Network assembly and the analytic parameter / mult-add cost model."""

import json

import numpy as np
import pytest

from pnas.cells import PNASNET_5_KEY, parse_cell_key, random_cell
from pnas.network import (
    BuildError,
    CostReport,
    GraphContractError,
    StackPlan,
    build_network,
    export_graph,
    op_cost,
)

IDENTITY_CELL = parse_cell_key("1|0,4,1,4")


def test_reference_cell_costs_frozen():
    cell = parse_cell_key(PNASNET_5_KEY)
    graph = build_network(cell, StackPlan(n=3, f=48))
    cost = graph.cost
    assert cost.params == 3336490
    assert cost.mult_adds == 458037120
    # the published figure for this cell at N=3, F=48 is 3.2M parameters
    assert abs(cost.params - 3.2e6) / 3.2e6 < 0.20


def test_sep3x3_cost_hand_formula():
    # depthwise 3x3 over c_in, pointwise to c_out, repeated on c_out:
    # per rep h*w*(k^2*c + c*c_out) mult-adds
    got = op_cost("sep3x3", 24, 24, 32, 32)
    hand = 32 * 32 * (9 * 24 + 24 * 24) + 32 * 32 * (9 * 24 + 24 * 24)
    assert got.mult_adds == hand == 1622016
    assert got.params == (9 * 24 + 24 * 24 + 48) * 2


def test_costless_ops():
    for op in ("identity", "avgpool3x3", "maxpool3x3", "add", "concat"):
        assert op_cost(op, 16, 16, 8, 8) == CostReport(0, 0)


def test_unknown_op_rejected():
    with pytest.raises(GraphContractError, match="unknown graph op"):
        op_cost("fft", 4, 4, 2, 2)


def test_identity_cell_stage_shapes():
    graph = build_network(IDENTITY_CELL, StackPlan(n=1, f=8))
    shapes = [graph.nodes[i].shape for i in graph.cell_outputs]
    assert shapes == [
        (32, 32, 8),
        (16, 16, 16),
        (16, 16, 16),
        (8, 8, 32),
        (8, 8, 32),
    ]


def test_identity_cell_costs_frozen():
    graph = build_network(IDENTITY_CELL, StackPlan(n=1, f=8))
    cost = graph.cost
    assert (cost.params, cost.mult_adds) == (2538, 225600)


def test_params_monotone_in_width():
    cell = parse_cell_key(PNASNET_5_KEY)
    widths = [build_network(cell, StackPlan(f=f)).cost.params for f in (8, 16, 32)]
    assert widths[0] < widths[1] < widths[2]


def test_spatial_underflow():
    with pytest.raises(ValueError, match="cells need an input size divisible by 4 to halve it twice; input_hw 2 gives 2"):
        StackPlan(input_hw=2)


def test_stem_needs_large_input():
    with pytest.raises(ValueError, match="input_hw >= 64"):
        StackPlan(stem="conv3x3_stride2")
    plan = StackPlan(stem="conv3x3_stride2", input_hw=64)
    graph = build_network(IDENTITY_CELL, plan)
    assert graph.nodes[1].op == "conv3x3"
    assert graph.nodes[1].shape == (32, 32, 24)


def test_plan_validation():
    with pytest.raises(ValueError, match="N must be >= 1"):
        StackPlan(n=0)
    with pytest.raises(ValueError, match="F must be >= 1"):
        StackPlan(f=0)
    with pytest.raises(ValueError, match="at least 2 classes"):
        StackPlan(num_classes=1)
    with pytest.raises(ValueError, match="stem must be one of"):
        StackPlan(stem="resnet")
    # 0 and negative sizes pass the divisible-by-4 rule, so they need a check of their own
    for hw in (0, -4):
        with pytest.raises(ValueError, match=f"input size must be >= 1, got {hw}"):
            StackPlan(input_hw=hw)


def test_build_requires_canonical():
    with pytest.raises(BuildError, match="canonical"):
        build_network(parse_cell_key("1|1,4,0,4"), StackPlan())


def test_export_graph_round_trip():
    graph = build_network(IDENTITY_CELL, StackPlan(n=1, f=8))
    doc = export_graph(graph, cell_key="1|0,4,1,4", plan=StackPlan(n=1, f=8))
    again = json.loads(json.dumps(doc))
    assert again["schema_version"] == 1
    assert again["cell_key"] == "1|0,4,1,4"
    assert again["plan"]["n"] == 1
    assert again["params"] == 2538
    assert again["mult_adds"] == 225600
    assert again["output_node"] == graph.output_node
    assert len(again["nodes"]) == len(graph.nodes)
    assert all(set(n) == {"id", "op", "inputs", "shape"} for n in again["nodes"])


def reference_cost(graph):
    """op_cost summed over the built graph's nodes, each taking its channels from its first input."""
    params = mult_adds = 0
    for node in graph.nodes:
        c_in = graph.nodes[node.inputs[0]].shape[2] if node.inputs else 0
        cost = op_cost(node.op, c_in, node.shape[2], node.shape[0], node.shape[1])
        params += cost.params
        mult_adds += cost.mult_adds
    return CostReport(params, mult_adds)


@pytest.mark.parametrize(
    "plan",
    [StackPlan(), StackPlan(n=3, f=48), StackPlan(n=1, f=8, input_hw=224, stem="conv3x3_stride2")],
    ids=["default", "n3-f48", "imagenet-stem"],
)
def test_built_cost_is_the_sum_over_the_nodes(plan):
    rng = np.random.default_rng(31)
    for b in range(1, 11):
        for _ in range(5):
            graph = build_network(random_cell(b, rng), plan)
            for node in graph.nodes:
                assert type(node.shape) is tuple and len(node.shape) == 3
                assert all(type(size) is int for size in node.shape)
            assert graph.cost == reference_cost(graph)


@pytest.mark.parametrize("stem", ["none", "conv3x3_stride2"])
def test_every_accepted_plan_builds(stem):
    """Cells' input sizes 4-256 in steps of 4 build with every stage size exact, and no other size is accepted."""
    rng = np.random.default_rng(33)
    b = 0
    # the stem's own rule asks for input_hw >= 64
    for input_hw in range(1, 257) if stem == "none" else range(64, 2 * 256 + 2):
        hw = input_hw // 2 if stem == "conv3x3_stride2" else input_hw
        if hw % 4:
            with pytest.raises(ValueError, match=f"divisible by 4 to halve it twice; input_hw {input_hw} gives {hw}"):
                StackPlan(input_hw=input_hw, stem=stem)
            continue
        for n in (1, 2, 3):
            b = b % 10 + 1
            graph = build_network(random_cell(b, rng), StackPlan(n=n, f=4, input_hw=input_hw, stem=stem))
            targets = [graph.nodes[i].shape[0] for i in graph.cell_outputs]
            assert targets == [hw] * n + [hw // 2] * (n + 1) + [hw // 4] * (n + 1)
            first = 0
            for out, target in zip(graph.cell_outputs, targets):
                for node in graph.nodes[first : out + 1]:
                    if node.op == "conv1x1":
                        assert node.shape[:2] == (target, target)
                        assert graph.nodes[node.inputs[0]].shape[0] in (target, 2 * target)
                first = out + 1

"""Stacked-CNN construction from a cell, with parameter/mult-add accounting.

Layout (CIFAR-style, ``stem="none"``):

    input -> [N stride-1 cells]@F -> stride-2 cell@2F -> [N]@2F
          -> stride-2 cell@4F -> [N]@4F -> global average pool -> softmax

ImageNet-style plans put a dense 3x3/stride-2 stem convolution (F output
filters) in front of the same three-stage body; at the very first cell both
cell-external inputs alias the stem (or raw image) tensor.

Shape rules:
  * the cells' input size (``input_hw``, halved by a stem) must be divisible
    by 4, so that both stride-2 cells halve it exactly; ``StackPlan``
    rejects any other size;
  * every block output inside a cell has the cell's target shape
    (H/stride, W/stride, F); operators whose raw output mismatches it get a
    trailing 1x1 projection (with stride where needed);
  * in a stride-2 cell the stride applies to operators reading the
    cell-external inputs; block-to-block edges stay stride 1;
  * the previous-previous input is projected (1x1, stride 2, to F) when its
    spatial size is double the previous input's;
  * block outputs not consumed by another block are concatenated and
    projected back to F; when a single block is unused and already at F the
    projection is skipped.

Cost model (counted at output spatial positions, stride folded in, and
summed as the builder adds each node):
  * separable kxk expands to two repetitions of ReLU-SepConv-BatchNorm;
    each repetition costs k^2*H*W*C_in depthwise plus H*W*C_in*C_out
    pointwise mult-adds, and k^2*C_in + C_in*C_out + 2*C_out parameters;
  * conv1x7_7x1 is two dense asymmetric convolutions (+ batch norm);
  * dilated 3x3 is costed as a dense 3x3;
  * batch norm contributes 2*C parameters and no mult-adds (foldable);
  * pooling, identity, add, concat and global average pooling are free;
  * the softmax classifier is a fully connected C*classes + classes layer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .cells import CellSpec, OPERATOR_NAMES, Operator, is_canonical, validate_cell

STEM_KINDS = ("none", "conv3x3_stride2")
INPUT_CHANNELS = 3  # RGB images
_CONV_OPS = {Operator.SEP3X3, Operator.SEP5X5, Operator.SEP7X7, Operator.CONV1X7_7X1, Operator.DILATED3X3}


class BuildError(ValueError):
    """A network cannot be constructed from the given cell and plan."""


class GraphContractError(RuntimeError):
    """A graph node names an op the cost model does not know."""


@dataclass(frozen=True)
class StackPlan:
    """How cells are stacked into a scorable network."""

    n: int = 2
    f: int = 24
    input_hw: int = 32
    stem: str = "none"
    num_classes: int = 10

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"cell repeat count N must be >= 1, got {self.n}")
        if self.f < 1:
            raise ValueError(f"filter count F must be >= 1, got {self.f}")
        if self.input_hw < 1:
            raise ValueError(f"input size must be >= 1, got {self.input_hw}")
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        if self.stem not in STEM_KINDS:
            raise ValueError(f"stem must be one of {STEM_KINDS}, got {self.stem!r}")
        if self.stem == "conv3x3_stride2" and self.input_hw < 64:
            raise ValueError("conv3x3_stride2 stem is for large-image plans (input_hw >= 64)")
        hw = self.input_hw // 2 if self.stem == "conv3x3_stride2" else self.input_hw
        if hw % 4:
            raise ValueError(f"cells need an input size divisible by 4 to halve it twice; input_hw {self.input_hw} gives {hw}")


@dataclass(frozen=True)
class GraphNode:
    id: int
    op: str
    inputs: tuple[int, ...]
    shape: tuple[int, int, int]  # (H, W, C)


@dataclass(frozen=True)
class CostReport:
    params: int
    mult_adds: int


@dataclass(frozen=True)
class NetworkGraph:
    nodes: tuple[GraphNode, ...]
    output_node: int
    cell_outputs: tuple[int, ...]  # node id of each cell's output, in stack order
    cost: CostReport  # summed over the nodes


class _Builder:
    """Appends graph nodes and keeps the running total of their costs.

    A node's input channel count is its first input's; a node without
    inputs has none.
    """

    def __init__(self) -> None:
        self.nodes: list[GraphNode] = []
        self.params = self.mult_adds = 0

    def add(self, op: str, inputs: tuple[int, ...], shape: tuple[int, int, int]) -> int:
        c_in = self.nodes[inputs[0]].shape[2] if inputs else 0
        cost = op_cost(op, c_in, shape[2], shape[0], shape[1])
        self.params += cost.params
        self.mult_adds += cost.mult_adds
        self.nodes.append(GraphNode(id=len(self.nodes), op=op, inputs=inputs, shape=shape))
        return len(self.nodes) - 1


def _emit_op(bld: _Builder, op_id: int, src: int, f_out: int, stride: int, target_hw: int) -> int:
    """One operator application plus, if needed, a trailing 1x1 projection."""
    h, _w, c_in = bld.nodes[src].shape
    # every operator but identity applies the stride; only convolutions set the channel count
    out_hw = h if op_id == Operator.IDENTITY else h // stride
    c_out = f_out if op_id in _CONV_OPS else c_in
    node = bld.add(OPERATOR_NAMES[op_id], (src,), (out_hw, out_hw, c_out))
    if (out_hw, c_out) != (target_hw, f_out):
        node = bld.add("conv1x1", (node,), (target_hw, target_hw, f_out))
    return node


def _emit_cell(bld: _Builder, cell: CellSpec, prev_prev: int, prev: int, f_out: int, stride: int) -> int:
    h_in = bld.nodes[prev].shape[0]
    target_hw = h_in // stride
    if bld.nodes[prev_prev].shape[0] != h_in:
        prev_prev = bld.add("conv1x1", (prev_prev,), (h_in, h_in, f_out))
    tensors = [prev_prev, prev]
    used: set[int] = set()
    for block in cell:
        halves = []
        for inp, op_id in ((block.i1, block.o1), (block.i2, block.o2)):
            used.add(inp)
            op_stride = stride if inp < 2 else 1
            halves.append(_emit_op(bld, op_id, tensors[inp], f_out, op_stride, target_hw))
        tensors.append(bld.add("add", (halves[0], halves[1]), (target_hw, target_hw, f_out)))
    unused = [tensors[j] for j in range(2, len(tensors)) if j not in used]
    # the last block's output is never referenceable, so unused is non-empty
    if len(unused) == 1:
        return unused[0]
    concat = bld.add("concat", tuple(unused), (target_hw, target_hw, f_out * len(unused)))
    return bld.add("conv1x1", (concat,), (target_hw, target_hw, f_out))


def build_network(cell: CellSpec, plan: StackPlan) -> NetworkGraph:
    """Stack a cell into the three-stage network described in the module docstring."""
    validate_cell(cell)
    if not is_canonical(cell):
        raise BuildError("build_network requires a canonical cell")
    bld = _Builder()
    current = bld.add("input", (), (plan.input_hw, plan.input_hw, INPUT_CHANNELS))
    if plan.stem == "conv3x3_stride2":
        hw = plan.input_hw // 2
        current = bld.add("conv3x3", (current,), (hw, hw, plan.f))
    prev_prev = prev = current
    f = plan.f
    cell_outputs: list[int] = []
    for stage in range(3):
        for _ in range(plan.n):
            nxt = _emit_cell(bld, cell, prev_prev, prev, f, stride=1)
            prev_prev, prev = prev, nxt
            cell_outputs.append(nxt)
        if stage < 2:
            f *= 2
            nxt = _emit_cell(bld, cell, prev_prev, prev, f, stride=2)
            prev_prev, prev = prev, nxt
            cell_outputs.append(nxt)
    gap = bld.add("global_avg_pool", (prev,), (1, 1, f))
    out = bld.add("softmax", (gap,), (1, 1, plan.num_classes))
    cost = CostReport(bld.params, bld.mult_adds)
    return NetworkGraph(nodes=tuple(bld.nodes), output_node=out, cell_outputs=tuple(cell_outputs), cost=cost)


_FREE_OPS = {"input", "identity", "add", "concat", "global_avg_pool", "avgpool3x3", "maxpool3x3"}
_SEP_KERNEL = {"sep3x3": 3, "sep5x5": 5, "sep7x7": 7}


def op_cost(op: str, c_in: int, c_out: int, h: int, w: int) -> CostReport:
    """Parameters and mult-adds of one graph node; (h, w) is the OUTPUT size."""
    if op in _FREE_OPS:
        return CostReport(0, 0)
    if op in _SEP_KERNEL:
        k2 = _SEP_KERNEL[op] ** 2
        params = (k2 * c_in + c_in * c_out + 2 * c_out) + (k2 * c_out + c_out * c_out + 2 * c_out)
        mult_adds = h * w * (k2 * c_in + c_in * c_out) + h * w * (k2 * c_out + c_out * c_out)
        return CostReport(params, mult_adds)
    if op == "conv1x7_7x1":
        params = (7 * c_in * c_out + 2 * c_out) + (7 * c_out * c_out + 2 * c_out)
        mult_adds = h * w * 7 * c_in * c_out + h * w * 7 * c_out * c_out
        return CostReport(params, mult_adds)
    if op in ("dilated3x3", "conv3x3"):
        return CostReport(9 * c_in * c_out + 2 * c_out, 9 * h * w * c_in * c_out)
    if op == "conv1x1":
        return CostReport(c_in * c_out + 2 * c_out, h * w * c_in * c_out)
    if op == "softmax":
        return CostReport(c_in * c_out + c_out, c_in * c_out)
    raise GraphContractError(f"unknown graph op {op!r}")


def export_graph(graph: NetworkGraph, cell_key: str, plan: StackPlan) -> dict:
    """JSON-serializable graph dump (schema_version 1) with the cell key and plan it was built from and its total costs."""
    return {
        "schema_version": 1,
        "nodes": [
            {"id": n.id, "op": n.op, "inputs": list(n.inputs), "shape": list(n.shape)}
            for n in graph.nodes
        ],
        "output_node": graph.output_node,
        "cell_outputs": list(graph.cell_outputs),
        "params": graph.cost.params,
        "mult_adds": graph.cost.mult_adds,
        "cell_key": cell_key,
        "plan": {**asdict(plan), "input_channels": INPUT_CHANNELS},
    }

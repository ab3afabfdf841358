"""Stacked-CNN construction from a cell, with parameter/mult-add accounting.

Layout (CIFAR-style, ``stem="none"``):

    input -> [N stride-1 cells]@F -> stride-2 cell@2F -> [N]@2F
          -> stride-2 cell@4F -> [N]@4F -> global average pool -> softmax

ImageNet-style plans put a dense 3x3/stride-2 stem convolution (F output
filters) in front of the same three-stage body; at the very first cell both
cell-external inputs alias the stem (or raw image) tensor.

Shape rules:
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

Cost model (counted at output spatial positions, stride folded in):
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
_POOL_OPS = {Operator.AVGPOOL3X3, Operator.MAXPOOL3X3}


class BuildError(ValueError):
    """A network cannot be constructed from the given cell and plan."""


class GraphContractError(RuntimeError):
    """A graph node violates the builder's annotation contract."""


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


@dataclass(frozen=True)
class GraphNode:
    id: int
    op: str
    inputs: tuple[int, ...]
    shape: tuple[int, int, int] | None  # (H, W, C)


@dataclass(frozen=True)
class NetworkGraph:
    nodes: tuple[GraphNode, ...]
    output_node: int
    cell_outputs: tuple[int, ...]  # node id of each cell's output, in stack order


@dataclass(frozen=True)
class CostReport:
    params: int
    mult_adds: int


class _Builder:
    def __init__(self) -> None:
        self.nodes: list[GraphNode] = []

    def add(self, op: str, inputs: tuple[int, ...], shape: tuple[int, int, int]) -> int:
        node = GraphNode(id=len(self.nodes), op=op, inputs=inputs, shape=shape)
        self.nodes.append(node)
        return node.id

    def shape(self, node_id: int) -> tuple[int, int, int]:
        shape = self.nodes[node_id].shape
        assert shape is not None
        return shape


def _halve(hw: int) -> int:
    out = hw // 2
    if out < 1:
        raise BuildError(f"spatial size underflow: cannot halve H=W={hw}")
    return out


def _emit_op(bld: _Builder, op_id: int, src: int, f_out: int, stride: int, target_hw: int) -> int:
    """One operator application plus, if needed, a trailing 1x1 projection."""
    h, _w, c_in = bld.shape(src)
    name = OPERATOR_NAMES[op_id]
    if op_id in _CONV_OPS:
        out_hw = _halve(h) if stride == 2 else h
        node = bld.add(name, (src,), (out_hw, out_hw, f_out))
    elif op_id in _POOL_OPS:
        out_hw = _halve(h) if stride == 2 else h
        node = bld.add(name, (src,), (out_hw, out_hw, c_in))
    else:  # identity cannot change resolution or channels
        node = bld.add(name, (src,), (h, h, c_in))
    node_hw = bld.shape(node)[0]
    if bld.shape(node) != (target_hw, target_hw, f_out):
        if node_hw not in (target_hw, 2 * target_hw):
            raise BuildError(f"operator output {node_hw} incompatible with target {target_hw}")
        node = bld.add("conv1x1", (node,), (target_hw, target_hw, f_out))
    return node


def _emit_cell(bld: _Builder, cell: CellSpec, prev_prev: int, prev: int, f_out: int, stride: int) -> int:
    h_in = bld.shape(prev)[0]
    target_hw = _halve(h_in) if stride == 2 else h_in
    pp_hw = bld.shape(prev_prev)[0]
    if pp_hw != h_in:
        if pp_hw != 2 * h_in:
            raise BuildError(f"previous-previous input at {pp_hw} cannot feed a cell at {h_in}")
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
        hw = _halve(plan.input_hw)
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
    return NetworkGraph(nodes=tuple(bld.nodes), output_node=out, cell_outputs=tuple(cell_outputs))


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


def count_costs(graph: NetworkGraph) -> CostReport:
    """Total trainable parameters and multiply-adds of a graph."""
    params = 0
    mult_adds = 0
    for node in graph.nodes:
        if node.shape is None:
            raise GraphContractError(f"node {node.id} ({node.op}) lacks a shape annotation")
        if node.inputs:
            in_shape = graph.nodes[node.inputs[0]].shape
            if in_shape is None:
                raise GraphContractError(f"node {node.inputs[0]} lacks a shape annotation")
            c_in = in_shape[2]
        else:
            c_in = 0
        cost = op_cost(node.op, c_in, node.shape[2], node.shape[0], node.shape[1])
        params += cost.params
        mult_adds += cost.mult_adds
    return CostReport(params=params, mult_adds=mult_adds)


def export_graph(graph: NetworkGraph, cell_key: str, plan: StackPlan) -> dict:
    """JSON-serializable graph dump (schema_version 1) with the cell key and plan it was built from and its total costs."""
    cost = count_costs(graph)
    return {
        "schema_version": 1,
        "nodes": [
            {"id": n.id, "op": n.op, "inputs": list(n.inputs), "shape": list(n.shape or ())}
            for n in graph.nodes
        ],
        "output_node": graph.output_node,
        "cell_outputs": list(graph.cell_outputs),
        "params": cost.params,
        "mult_adds": cost.mult_adds,
        "cell_key": cell_key,
        "plan": {**asdict(plan), "input_channels": INPUT_CHANNELS},
    }

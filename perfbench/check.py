"""Independent output checker for the end-to-end benchmark.

Shares no code with the engine: its own BLIF reader, its own bit-parallel
evaluator, its own single-stuck-at fault simulator and its own unit-delay
depth. For each (input, result, report) triple it checks the three parts
of the paper's contract:

  * equivalence: result == input on every vector (exhaustive up to
    EXHAUSTIVE_MAX inputs, seeded random vectors above), and for adders
    also s == a + b + cin as integers;
  * irredundancy: every single stuck-at fault of the result is detected
    by the vectors; faults the vectors miss are returned so the caller
    can hand the result to an `audit` job (which must then report 0
    redundant and 0 unknown);
  * delay: depth counts every .names as one level; the offset that makes
    the input's depth equal the reported initial_topo_delay is applied to
    the result's depth, which must not exceed initial_computed_delay, and
    final_computed_delay <= initial_computed_delay.

  python3 perfbench/check.py --self-test    run the checker's self-test
"""

import heapq
import os
import random
import re
import sys

EXHAUSTIVE_MAX = 14
RANDOM_WIDTH = 4096


class Circuit:
    """A combinational BLIF model: named inputs/outputs and .names nodes."""

    def __init__(self, inputs, outputs, nodes):
        self.inputs = inputs
        self.outputs = outputs
        # node name -> (fanin names, rows, onset); a row is a list of
        # (fanin index, literal) with literal '1' or '0' ('-' dropped).
        self.nodes = nodes
        self.order = self._topo_order()
        self.fanout = {s: [] for s in list(inputs) + list(nodes)}
        for n in self.order:
            for f in nodes[n][0]:
                self.fanout[f].append(n)
        self.rank = {n: i for i, n in enumerate(self.order)}

    def _topo_order(self):
        for n, (fanins, _, _) in self.nodes.items():
            for f in fanins:
                if f not in self.nodes and f not in self.inputs:
                    raise ValueError("undriven signal " + f)
        pending = {n: sum(f in self.nodes for f in fanins)
                   for n, (fanins, _, _) in self.nodes.items()}
        users = {n: [] for n in self.nodes}
        for n, (fanins, _, _) in self.nodes.items():
            for f in fanins:
                if f in self.nodes:
                    users[f].append(n)
        order = [n for n, k in pending.items() if k == 0]
        for n in order:
            for m in users[n]:
                pending[m] -= 1
                if pending[m] == 0:
                    order.append(m)
        if len(order) != len(self.nodes):
            raise ValueError("combinational cycle")
        return order


def parse_blif(text):
    lines, buf = [], ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            buf += line[:-1] + " "
            continue
        line = (buf + line).strip()
        buf = ""
        if line:
            lines.append(line)
    inputs, outputs, nodes = [], [], {}
    current = None
    for line in lines:
        tok = line.split()
        if tok[0] == ".model":
            pass
        elif tok[0] == ".inputs":
            inputs += tok[1:]
        elif tok[0] == ".outputs":
            outputs += tok[1:]
        elif tok[0] == ".names":
            fanins, out = tok[1:-1], tok[-1]
            if out in nodes or out in inputs:
                raise ValueError("signal driven twice: " + out)
            current = (fanins, [], [None])
            nodes[out] = current
        elif tok[0] == ".end":
            current = None
        elif tok[0].startswith("."):
            raise ValueError("unsupported BLIF construct " + tok[0])
        else:
            if current is None:
                raise ValueError("cover row outside .names: " + line)
            fanins, rows, onset = current
            if fanins:
                if len(tok) != 2 or len(tok[0]) != len(fanins):
                    raise ValueError("bad cover row: " + line)
                pattern, value = tok
            else:
                pattern, value = "", tok[0]
            if value not in ("0", "1") or onset[0] not in (None, value):
                raise ValueError("bad cover output: " + line)
            onset[0] = value
            rows.append([(i, c) for i, c in enumerate(pattern) if c != "-"])
    for out in outputs:
        if out not in nodes and out not in inputs:
            raise ValueError("undriven output " + out)
    nodes = {n: (f, rows, onset[0] != "0") for n, (f, rows, onset)
             in nodes.items()}
    return Circuit(inputs, outputs, nodes)


def eval_node(node, values, mask, override=None):
    fanins, rows, onset = node
    args = [values[f] for f in fanins]
    if override is not None:
        args[override[0]] = override[1]
    acc = 0
    for row in rows:
        term = mask
        for i, lit in row:
            term &= args[i] if lit == "1" else ~args[i]
            if not term:
                break
        acc |= term
    acc &= mask
    return acc if onset else ~acc & mask


def simulate(c, pi_values, mask):
    values = dict(pi_values)
    for n in c.order:
        values[n] = eval_node(c.nodes[n], values, mask)
    return values


def make_vectors(inputs, rng):
    """Per-input bit vectors: exhaustive when small, seeded random else."""
    n = len(inputs)
    if n <= EXHAUSTIVE_MAX:
        width = 1 << n
        vecs = {}
        for i, name in enumerate(inputs):
            period = 1 << (i + 1)
            block = ((1 << (1 << i)) - 1) << (1 << i)
            v = 0
            for k in range(width // period):
                v |= block << (k * period)
            vecs[name] = v
        return vecs, width, True
    return ({name: rng.getrandbits(RANDOM_WIDTH) for name in inputs},
            RANDOM_WIDTH, False)


def check_equivalence(inp, res, vecs, mask):
    if sorted(inp.inputs) != sorted(res.inputs):
        return "input names differ"
    if sorted(inp.outputs) != sorted(res.outputs):
        return "output names differ"
    a, b = simulate(inp, vecs, mask), simulate(res, vecs, mask)
    for o in inp.outputs:
        if a[o] != b[o]:
            return "output %s differs from the input" % o
    return None


ADDER_BIT = re.compile(r"^([abs])(\d+)(_b\d+)?$")


def check_adder(res, vecs, width):
    """s + 2^n cout == a + b + cin, pattern by pattern, per block copy."""
    blocks = {}
    for name in res.inputs + res.outputs:
        m = ADDER_BIT.match(name)
        if m:
            blk = blocks.setdefault(m.group(3) or "", {"a": 0, "b": 0, "s": 0})
            blk[m.group(1)] = max(blk[m.group(1)], int(m.group(2)) + 1)
    values = simulate(res, vecs, (1 << width) - 1)
    for sfx, blk in blocks.items():
        bits = blk["a"]
        if not bits or blk["b"] != bits or blk["s"] != bits:
            return "adder block %r has mismatched widths" % sfx
        a = [values["a%d%s" % (i, sfx)] for i in range(bits)]
        b = [values["b%d%s" % (i, sfx)] for i in range(bits)]
        s = [values["s%d%s" % (i, sfx)] for i in range(bits)] + \
            [values["cout" + sfx]]
        cin = values["cin" + sfx]
        for j in range(width):
            x = sum(((a[i] >> j) & 1) << i for i in range(bits))
            y = sum(((b[i] >> j) & 1) << i for i in range(bits))
            z = sum(((s[i] >> j) & 1) << i for i in range(bits + 1))
            if x + y + ((cin >> j) & 1) != z:
                return "adder block %r: %d + %d + cin != %d" % (sfx, x, y, z)
    return None


def undetected_faults(c, vecs, mask):
    """Single stuck-at faults the vectors do not detect: stems on every
    input and node, branches on every fanin of a multi-fanout signal."""
    good = simulate(c, vecs, mask)
    outputs = set(c.outputs)
    missed = []

    def propagate(start, value):
        faulty = {start: value}
        if start in outputs:
            return True
        frontier = sorted(set(c.fanout[start]), key=c.rank.get)
        pending = set(frontier)
        heap = [(c.rank[n], n) for n in frontier]
        heapq.heapify(heap)
        while heap:
            _, n = heapq.heappop(heap)
            pending.discard(n)
            node = c.nodes[n]
            view = {f: faulty.get(f, good[f]) for f in node[0]}
            v = eval_node(node, view, mask)
            if v == good[n]:
                continue
            faulty[n] = v
            if n in outputs:
                return True
            for m in c.fanout[n]:
                if m not in pending:
                    pending.add(m)
                    heapq.heappush(heap, (c.rank[m], m))
        return False

    for s in list(c.inputs) + c.order:
        for stuck in (0, mask):
            if good[s] == stuck or not propagate(s, stuck):
                missed.append("%s/sa%d" % (s, 1 if stuck else 0))
        if len(c.fanout[s]) + (s in outputs) < 2:
            continue
        for g in set(c.fanout[s]):
            node = c.nodes[g]
            for k, f in enumerate(node[0]):
                if f != s:
                    continue
                for stuck in (0, mask):
                    v = eval_node(node, good, mask, (k, stuck))
                    if v == good[g] or not propagate(g, v):
                        missed.append("%s->%s/sa%d" %
                                      (s, g, 1 if stuck else 0))
    return missed


def depth(c):
    level = {s: 0 for s in c.inputs}
    for n in c.order:
        level[n] = 1 + max((level[f] for f in c.nodes[n][0]), default=0)
    return max((level[o] for o in c.outputs), default=0)


def check_result(input_text, result_text, report, seed, adder):
    """Returns (errors, missed faults) for one job's result."""
    errors = []
    try:
        inp, res = parse_blif(input_text), parse_blif(result_text)
    except ValueError as e:
        return ["cannot read BLIF: %s" % e], []
    rng = random.Random(seed)
    vecs, width, _ = make_vectors(inp.inputs, rng)
    mask = (1 << width) - 1
    err = check_equivalence(inp, res, vecs, mask)
    if err:
        errors.append(err)
    if adder:
        err = check_adder(res, vecs, width)
        if err:
            errors.append(err)
    offset = report["initial_topo_delay"] - depth(inp)
    if depth(res) + offset > report["initial_computed_delay"] + 1e-9:
        errors.append("result depth %d + offset %g exceeds initial computed "
                      "delay %g" % (depth(res), offset,
                                    report["initial_computed_delay"]))
    if report["final_computed_delay"] > report["initial_computed_delay"]:
        errors.append("final computed delay exceeds the initial one")
    missed = undetected_faults(res, vecs, mask) if not errors else []
    return errors, missed


def self_test():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "inputs", "csa_4_4.blif")) as f:
        text = f.read()
    c = parse_blif(text)
    rng = random.Random(1)
    vecs, width, exhaustive = make_vectors(c.inputs, rng)
    mask = (1 << width) - 1
    assert exhaustive and check_equivalence(c, c, vecs, mask) is None
    assert check_adder(c, vecs, width) is None
    # Flip the first literal of the first cover row of the node driving
    # s0: the row then covers the opposite half of its cube.
    lines = text.splitlines()
    head = next(i for i, l in enumerate(lines)
                if l.startswith(".names") and l.split()[-1] == "s0")
    pattern, value = lines[head + 1].split()
    k = next(i for i, ch in enumerate(pattern) if ch != "-")
    pattern = pattern[:k] + ("0" if pattern[k] == "1" else "1") + \
        pattern[k + 1:]
    lines[head + 1] = pattern + " " + value
    flipped = parse_blif("\n".join(lines))
    assert check_equivalence(c, flipped, vecs, mask) is not None
    assert check_adder(flipped, vecs, width) is not None
    # statred.blif carries one redundant branch per output.
    with open(os.path.join(here, "..", "examples", "statred.blif")) as f:
        red = parse_blif(f.read())
    vecs, width, exhaustive = make_vectors(red.inputs, rng)
    assert exhaustive
    missed = undetected_faults(red, vecs, (1 << width) - 1)
    assert missed, "statred.blif must be flagged as redundant"
    print("check.py self-test ok (statred undetected: %s)" % ", ".join(missed))


if __name__ == "__main__":
    if sys.argv[1:] == ["--self-test"]:
        self_test()
    else:
        sys.exit(__doc__)

"""The three benchmark workloads: input generation, the timed request,
and the untimed correctness check of each request's result.

Every input comes from ``random.Random(seed)``.  A run is a sequence
of rounds, and every round follows the workload's template: one request
per slot, each slot fixing the property that sets a request's cost, so
every round does the same mix of work whatever the seed.  The sweeps
draw words from the acceptance recipe and keep those whose sequence
count fills a slot; without that, one heavy word more or less moves a
run's throughput by a quarter.  Their templates are the quantiles of
each recipe's sequence-count distribution (20,000 draws), snapped to
the nearest count that at least 0.4 % of draws have.  A sweep slot
also fixes the word's pair count, the commonest one for its sequence
count (split where two are common): a 180-sequence word of 6 pairs
takes a sixth longer than one of 5.  The library template fixes the
length of the reducible word.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass

import reference as ref

ALPHABET3 = tuple((name, sign) for name in "abc" for sign in (1, -1))
ALPHABET1 = (("a", 1), ("a", -1))

# (sequence count, pair count) per slot
SWEEP_TEMPLATE = ((1, 1), (1, 1), (1, 1), (1, 1), (1, 2), (2, 2), (2, 2), (2, 2),
                  (3, 2), (3, 3), (5, 3), (6, 3), (9, 3), (12, 4), (15, 4), (24, 4),
                  (35, 4), (50, 5), (70, 5), (100, 5), (180, 6), (270, 6), (540, 6),
                  (540, 6))
GRAPH_TEMPLATE = (270, 630, 880, 1287, 1575, 2385, 3465, 5670)
# 16-80 letters, each length three times per round
LIBRARY_PAIRS = tuple(range(8, 41)) * 3


def render(w) -> str:
    return " ".join(name if sign > 0 else name + "'" for name, sign in w)


def reducible_word(letters, pairs: int, rng: random.Random) -> tuple:
    """The insertion recipe of freeword's random_reducible_word, kept
    here so the benchmark knows which word a seeded CLI call checks."""
    word = ()
    for _ in range(pairs):
        item = rng.choice(letters)
        at = rng.randrange(len(word) + 1)
        word = word[:at] + (item, ref.inverse_item(item)) + word[at:]
    return word


def _fill_template(template, rounds: int, draw) -> list[list]:
    # draw() returns (slot key, item); keep items whose key is still
    # wanted, then deal them out one per template slot per round
    wanted = Counter(template)
    for key in wanted:
        wanted[key] *= rounds
    found: dict[object, list] = {key: [] for key in wanted}
    missing = sum(wanted.values())
    while missing:
        key, item = draw()
        if len(found.get(key, ())) < wanted[key]:
            found[key].append(item)
            missing -= 1
    taken = Counter()
    out = []
    for _ in range(rounds):
        batch = []
        for key in template:
            batch.append(found[key][taken[key]])
            taken[key] += 1
        out.append(batch)
    return out


@dataclass(frozen=True)
class SweepItem:
    cli_seed: int
    word: tuple
    sequences: int

    @property
    def argv(self) -> list[str]:
        return ["check", "--alphabet", "a,b,c", "--max-len", "12", "--samples", "1",
                "--seed", str(self.cli_seed), "--json"]

    def text(self) -> str:
        return f"{self.cli_seed} {render(self.word)}"


def sweep_inputs(seed: int, rounds: int, template=SWEEP_TEMPLATE) -> list[list[SweepItem]]:
    rng = random.Random(seed)

    def draw():
        cli_seed = rng.randrange(2**31)
        cli_rng = random.Random(cli_seed)  # the CLI's own recipe for --samples 1
        word = reducible_word(ALPHABET3, cli_rng.randint(1, 6), cli_rng)
        n = ref.count_sequences(word)
        return (n, len(word) // 2), SweepItem(cli_seed, word, n)

    return _fill_template(template, rounds, draw)


def sweep_request(fw, item: SweepItem):
    out = io.StringIO()
    with redirect_stdout(out):
        code = fw.cli.main(item.argv)
    return code, out.getvalue()


def sweep_check(item: SweepItem, result) -> bool:
    code, text = result
    report = json.loads(text)
    return (
        code == 0
        and report["ok"] is True
        and report["mode"] == "samples"
        and report["words_checked"] == 1
        and report["sequences_enumerated"] == item.sequences
        and report["pairs_verified"] == ref.expected_pairs(item.sequences)
        and report["max_bfs_distance"] <= report["max_chain_length"]
        <= ref.chain_bound(len(item.word) // 2)
        and not any(report["failures"].values())
    )


@dataclass(frozen=True)
class GraphItem:
    word: tuple
    sequences: int
    pair_seed: int

    def text(self) -> str:
        return f"{self.pair_seed} {render(self.word)}"


def graph_inputs(seed: int, rounds: int, template=GRAPH_TEMPLATE) -> list[list[GraphItem]]:
    rng = random.Random(seed)

    def draw():
        word = reducible_word(ALPHABET1, 6, rng)
        n = ref.count_sequences(word)
        return n, GraphItem(word, n, rng.randrange(2**31))

    return _fill_template(template, rounds, draw)


def graph_request(fw, item: GraphItem):
    word = tuple(map(fw.SignedGenerator._make, item.word))
    return fw.oracle.check_corpus([word], seed=item.pair_seed)


def graph_check(item: GraphItem, report) -> bool:
    return (
        report.ok
        and report.words_checked == 1
        and report.sequences_enumerated == item.sequences
        and report.pairs_verified == ref.expected_pairs(item.sequences)
        and report.max_bfs_distance <= report.max_chain_length
        <= ref.chain_bound(len(item.word) // 2)
    )


@dataclass(frozen=True)
class LibraryItem:
    word: tuple          # fully reducible, 16-80 letters
    left: tuple          # random, 500 letters
    right: tuple         # random, 500 letters
    start: tuple         # two complete reductions of word
    target: tuple
    drop_at: int         # a redex position of word
    text_word: str       # the three words as parse_word receives them
    text_left: str
    text_right: str

    def text(self) -> str:
        return "|".join([self.text_word, self.text_left, self.text_right,
                         ",".join(map(str, self.start)), ",".join(map(str, self.target)),
                         str(self.drop_at)])


def _random_reduction(word, rng: random.Random) -> tuple[int, ...]:
    current = list(word)
    steps = []
    while current:
        redexes = [p for p in range(len(current) - 1)
                   if current[p + 1] == ref.inverse_item(current[p])]
        p = rng.choice(redexes)
        steps.append(p)
        del current[p:p + 2]
    return tuple(steps)


def library_inputs(seed: int, rounds: int, pairs=LIBRARY_PAIRS) -> list[list[LibraryItem]]:
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        batch = []
        for k in pairs:
            word = reducible_word(ALPHABET3, k, rng)
            left = tuple(rng.choices(ALPHABET3, k=500))
            right = tuple(rng.choices(ALPHABET3, k=500))
            redexes = [p for p in range(len(word) - 1)
                       if word[p + 1] == ref.inverse_item(word[p])]
            batch.append(LibraryItem(
                word, left, right, _random_reduction(word, rng),
                _random_reduction(word, rng), rng.choice(redexes),
                render(word), render(left), render(right)))
        out.append(batch)
    return out


def library_request(fw, item: LibraryItem):
    # the text travels through parse_word like a library user's input
    w = fw.parse_word(item.text_word)
    u = fw.parse_word(item.text_left)
    v = fw.parse_word(item.text_right)
    nf_u = fw.normal_form(u)
    nf_w = fw.normal_form(w)
    product = fw.mul(u, v)
    inverse = fw.inv(nf_u)
    trivial = fw.eq(fw.mul(u, inverse), ())
    same = fw.eq(u, v)
    exponents = fw.abelianize(product)
    r = fw.validate_sequence(w, item.start)
    s = fw.validate_sequence(w, item.target)
    chain = fw.transform_to(r, s)
    replayed = fw.apply_chain(r, chain)
    dropped = fw.drop_redex(r, item.drop_at)
    return (w, u, v, nf_u, nf_w, product, inverse, trivial, same, exponents,
            r.steps, s.steps, len(chain), replayed, dropped)


def library_check(item: LibraryItem, result) -> bool:
    (w, u, v, nf_u, nf_w, product, inverse, trivial, same, exponents,
     r_steps, s_steps, chain_length, replayed, dropped) = result
    left, right = ref.to_chars(item.left), ref.to_chars(item.right)
    nf_left = ref.naive_normal_form(left)
    nf_product = ref.naive_normal_form(left + right)
    p = item.drop_at
    shorter = item.word[:p] + item.word[p + 2:]
    return (
        w == item.word and u == item.left and v == item.right
        and ref.to_chars(nf_u) == nf_left
        and nf_w == ()
        and ref.to_chars(product) == nf_product
        and ref.to_chars(inverse) == ref.naive_inverse(nf_left)
        and trivial is True
        and same == (nf_left == ref.naive_normal_form(right))
        and exponents == ref.exponent_sums(nf_product)
        and r_steps == item.start and s_steps == item.target
        and chain_length <= ref.chain_bound(len(item.word) // 2)
        and replayed.word == item.word and replayed.steps == item.target
        and ref.is_complete_reduction(item.word, replayed.steps)
        and dropped.word == shorter
        and ref.is_complete_reduction(shorter, dropped.steps)
    )


@dataclass(frozen=True)
class Workload:
    inputs: object      # (seed, rounds) -> list of rounds of items
    request: object     # (freeword namespace, item) -> result; timed
    check: object       # (item, result) -> bool; untimed
    pool_rounds: int    # rounds generated at set-up; a run cycles through them


WORKLOADS = {
    "sweep": Workload(sweep_inputs, sweep_request, sweep_check, 12),
    "graph-large": Workload(graph_inputs, graph_request, graph_check, 12),
    "library-long": Workload(library_inputs, library_request, library_check, 4),
}


def digest(rounds) -> str:
    h = hashlib.sha256()
    for batch in rounds:
        for item in batch:
            h.update(item.text().encode())
            h.update(b"\n")
    return h.hexdigest()

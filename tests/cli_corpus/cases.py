"""The CLI contract corpus: each case is one or more ``crrpricing`` commands,
run in order in a fresh directory. Every argument that names a file of
``inputs/`` or of ``GENERATED`` (inputs too large to commit) is copied there
first. ``run.py`` runs the cases; ``expected.txt`` is what they print.

A case noted as a known defect pins today's wrong output, so the fix shows
up as an intended change to ``expected.txt``.
"""
import shlex

X, LONG = "x" * 100_000, "1" * 100_000
M2 = '{"u":1.2,"d":0.8,"v":10,"r":0.03,"p":0.5,"horizon":2}'
GENERATED = {
    "u-string.json": M2.replace("1.2", f'"{X}"'),
    "u-list.json": M2.replace("1.2", f'["{X}"]'),
    "long-key.json": M2.replace("}", f',"{X}":1}}'),
    "horizon-401-digits.json": M2.replace(":2}", f":1{'0' * 400}}}"),
    "u-5000-digits.json": M2.replace("1.2", LONG[:5000]),
    "deep.json": "[" * 100_000,
    "table-long-label.csv": f"prefix,value\n{'U' * 50_001},1\n",
    "table-long-value.csv": f"prefix,value\nU,{X}\nD,0\n",
    "table-long-bad-label.csv": f"prefix,value\n{X},1\n",
    **{f"portfolio-{name}.csv": f"time,prefix,asset,quantity\n{row}\n" for name, row in {
        "long-asset": f"0,-,{X},1", "long-quantity": f"0,-,S,{X}", "padded-nan": f"0,-,S,nan{' ' * 100_000}",
        "long-time": f"{LONG},-,S,1", "time-4000-digits": f"{LONG[:4000]},-,S,1",
        "time-5000-digits-x": f"{LONG[:5000]}x,-,S,1", "long-prefix": f"0,{'U' * 100_000},S,1",
    }.items()},
}
ITEM9 = "known defect (ROADMAP item 9): replicate and verify reject the engine's own hedge"
NOTES = {f"grid/item9/{tag}/T5": ITEM9 for tag in ("lookback", "avg", "put", "pos")}
CASES = []


def case(name, *commands):
    """Commands are shell-quoted strings, or argv lists when too long to split."""
    argvs = [c if isinstance(c, list) else shlex.split(c) for c in commands]
    CASES.append((name, argvs, NOTES.get(name, "")))


def on(config, payoff, maturity):
    return f"--config {config} --payoff {shlex.quote(payoff)} --maturity {maturity}"


# every command over configs, payoffs and maturities; a hedge on stdout only up to T=5
PAYOFFS = {"call": "call(10)", "lookback": "lookback", "avg": "avg(S) - 10", "mixed": "max(S[2], S_T) / 3 - min(S)",
           "put": "put(10)", "pos": "pos(avg(S) - S_T)", "div0": "1 / (S_T - S_T)", "late": "S[6] + S_T"}
for config in ("ref8", "flat", "negrate", "large-spot", "edge-big", "item9", "rich-bank8"):
    case(f"check/{config}", f"check --config {config}.json")
    for tag, payoff in PAYOFFS.items():
        for t in (0, 1, 5, 8):
            argv = on(f"{config}.json", payoff, t)
            case(f"grid/{config}/{tag}/T{t}", f"price {argv}", f"price {argv} --tree tree.csv",
                 f"replicate {argv} --out hedge.csv", f"verify {argv} --portfolio hedge.csv",
                 *[f"replicate {argv}"] * (t <= 5))

# the golden T=5 cases, market REFERENCE at horizon 5; the perturbed hedges move
# one risky holding by 0.01: in the last period both clauses fail, earlier only
# the self-financing one
for tag, payoff in {"lookback": "lookback", "avg": "avg(S) - 10", "call": "call(10)",
                    "mixed": "max(S[2], S_T) / 3 - min(S)"}.items():
    argv = on("ref5.json", payoff, 5)
    case(f"golden/{tag}", f"price {argv} --tree tree.csv", f"replicate {argv} --out hedge.csv",
         f"verify {argv} --portfolio hedge_{tag}_T5.csv")
# a payoff of signed zeros: -0.0 below the strike, 0.0 above it, in the tree and the hedge
argv = on("ref5.json", "(S_T - 10) * 0", 5)
case("golden/signed-zeros", f"price {argv} --tree tree.csv", f"replicate {argv}")
for tag in ("perturbed", "perturbed-early"):
    case(f"golden/verify-{tag}", f"verify {on('ref5.json', 'lookback', 5)} --portfolio hedge_lookback_{tag}_T5.csv")
for config in ("rich-bank", "rich-stock"):
    case(f"golden/check-{config}", f"check --config {config}.json")

# the scenarios of the former installed-script step in CI
for name, *commands in [
    ("check-viable", "check --config market.json"),
    ("config-integer-past-float-range", "check --config huge.json"),
    ("path-table", "price --config market.json --path-table table.csv --maturity 1"),
    ("path-table-long-row", "price --config market.json --path-table long-row.csv --maturity 1"),
    ("path-table-incomplete", "price --config market.json --path-table incomplete.csv --maturity 1"),
    ("path-table-maturity-past-cap", "price --config market.json --path-table empty.csv --maturity 25"),
    ("maturity-past-horizon", f"price {on('market.json', 'lookback', 40)}"),
    ("tree-T2-lookback", f"price {on('market.json', 'lookback', 2)} --tree t.csv"),
    ("index-past-maturity", f"price {on('m12.json', 'S[13] + S_T', 12)}"),
    ("round-trip-lookback-T2", f"replicate {on('market.json', 'lookback', 2)} --out hedge.csv",
     f"verify {on('market.json', 'lookback', 2)} --portfolio hedge.csv"),
    ("round-trip-asian-T12", f"replicate {on('m12.json', 'avg(S) - 100', 12)} --out asian.csv",
     f"verify {on('m12.json', 'avg(S) - 100', 12)} --portfolio asian.csv"),
    ("verify-coarse", f"verify {on('market.json', 'S_T', 2)} --portfolio coarse.csv"),
    ("verify-peeking", f"verify {on('market.json', 'S_T', 2)} --portfolio peeking.csv"),
    ("verify-overflow", f"verify {on('m1.json', 'call(10)', 1)} --portfolio overflow.csv"),
    ("inviable-horizon-1-and-24", "check --config inviable1.json", "check --config inviable24.json"),
    ("inviable-only-by-rounding", "check --config rounding.json"),
]:
    case(f"script/{name}", *commands)

# configs: viable, inviable, float-range edges, malformed
for config in ("ref5", "rich-stock", "inviable24", "rounding", "tiny-spot", "huge-rate", "overflow-spot", "nan-u",
               "inf-v", "float-digits", "not-json", "array", "missing-keys", "unknown-key", "string-u", "bool-p",
               "float-horizon", "zero-horizon", "horizon-25", "negative-v", "p-above-one", "d-above-u", "missing"):
    case(f"config/{config}", f"check --config {config}.json", f"price {on(f'{config}.json', 'lookback', 2)}",
         f"replicate {on(f'{config}.json', 'call(10)', 1)}")
case("config/rounding-price-replicate", f"price {on('rounding.json', 'call(1)', 3)}",
     f"replicate {on('rounding.json', 'call(1)', 3)}")
case("config/tiny-spot-round-trip", f"replicate {on('tiny-spot.json', 'lookback', 4)} --out hedge.csv",
     f"verify {on('tiny-spot.json', 'lookback', 4)} --portfolio hedge.csv")

# payoffs: the grammar and its errors
for tag, payoff in {
    "S_T": "S_T", "forward": "forward(9.5)", "S0": "S[0]", "min": "min(S)", "max2": "max(S_T, 11)",
    "min2": "min(S[1], S_T) * 2", "neg": "-S_T + 20", "exp": "1e2 - S_T", "nested": "pos(pos(S_T - 9) - 1)",
    "spaces": "  call( 10 )  ", "empty": "", "blank": "   ", "open": "call(", "unknown": "sigma",
    "trailing": "S_T S_T", "fraction-index": "S[1.5]", "float-range": "1e999", "avg-arg": "avg(S_T)",
    "char": "S_T $ 1", "bracket": "S[", "comma": "max(S_T)", "deep": "(" * 101 + "S_T" + ")" * 101,
    "deepest": "(" * 99 + "S_T" + ")" * 99, "wide": " + ".join(["S_T"] * 101),
}.items():
    case(f"payoff/{tag}", f"price {on('ref5.json', payoff, 3)}")

# path tables: complete, incomplete, malformed
for table, t in (("table-T2", 2), ("bad-header", 1), ("bad-label", 1), ("bad-value", 1), ("nan-value", 1),
                 ("duplicate", 1), ("wrong-length", 1), ("quoted", 1), ("table", 2), ("empty", 0), ("missing", 1)):
    argv = f"--config market.json --path-table {table}.csv --maturity {t}"
    case(f"path-table/{table}", f"price {argv} --tree tree.csv", f"replicate {argv}",
         f"verify {argv} --portfolio coarse.csv")

# portfolio tables: coarse, peeking, overflowing, malformed
for table in ("coarse", "peeking", "overflow", "inf-minus-inf", "unknown-asset", "conflict", "late-time", "bad-time",
              "bad-quantity", "inf-quantity", "long-prefix", "portfolio-header", "short-row", "zero", "missing"):
    argv = f"verify {on('market.json', 'S_T', 2)} --portfolio {table}.csv"
    case(f"portfolio/{table}", argv, f"{argv} --tolerance 0")
case("portfolio/maturity-0", f"verify {on('market.json', 'S_T', 0)} --portfolio coarse.csv")
case("portfolio/short-hedge", f"replicate {on('market.json', 'lookback', 1)} --out hedge.csv",
     f"verify {on('market.json', 'lookback', 2)} --portfolio hedge.csv")

# oversized and over-long input: each error line echoes a bounded part of it
READER = {"json": "check --config {}", "table": "price --config market.json --path-table {} --maturity 1",
          "portfolio": f"verify {on('market.json', 'S_T', 1)} --portfolio {{}}"}
for name in GENERATED:
    case(f"oversized/{name}", READER["json" if name.endswith(".json") else name.split("-")[0]].format(name))
for tag, payoff in {"identifier": X, "trailing": f"S_T {X}", "number": "1" + "0" * 100_000,
                    "index-5000-digits": f"S[{LONG[:5000]}]", "index-4000-digits": f"S[{LONG[:4000]}]",
                    "division": "1 / (" + " + ".join(["S_T - S_T"] * 20) + ")"}.items():
    case(f"oversized/payoff-{tag}", ["price", "--config", "market.json", "--payoff", payoff, "--maturity", "1"])
for tag, command in {
    "maturity-5000-digits": f"price {on('market.json', 'S_T', LONG[:5000])}",
    "tolerance": f"replicate {on('market.json', 'S_T', 1)} --tolerance {X}",
    "path-config": f"check --config {X}",
    "path-path-table": f"price --config market.json --path-table {X} --maturity 1",
    "path-portfolio": f"verify {on('market.json', 'S_T', 1)} --portfolio {X}",
    "path-tree": f"price {on('market.json', 'S_T', 1)} --tree {X}",
    "path-out": f"replicate {on('market.json', 'S_T', 1)} --out {X}",
}.items():
    case(f"oversized/{tag}", command)

# the argument parser
for tag, argv in {
    "none": "", "unknown-command": "hedge", "no-config": "check", "no-payoff": "price --config market.json --maturity 1",
    "both-payoffs": "price --config market.json --payoff S_T --path-table table.csv --maturity 1",
    "no-maturity": "price --config market.json --payoff S_T", "maturity-text": f"price {on('market.json', 'S_T', 'two')}",
    "maturity-negative": f"price {on('market.json', 'S_T', -1)}", "unknown-option": "check --config market.json -v",
    "verify-no-portfolio": f"verify {on('market.json', 'S_T', 1)}",
    "tolerance-negative": f"replicate {on('market.json', 'S_T', 1)} --tolerance -1",
    "tolerance-nan": f"replicate {on('market.json', 'S_T', 1)} --tolerance nan",
    "tolerance-text": f"replicate {on('market.json', 'S_T', 1)} --tolerance tight",
    "tolerance-loose": f"replicate {on('market.json', 'lookback', 2)} --tolerance 1e-3",
    "tree-unwritable": f"price {on('market.json', 'S_T', 1)} --tree no-such-dir/tree.csv",
    "out-unwritable": f"replicate {on('market.json', 'S_T', 1)} --out no-such-dir/hedge.csv",
}.items():
    case(f"args/{tag}", argv)

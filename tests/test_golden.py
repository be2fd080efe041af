"""Byte-level pins on the files that ``simulate`` -> ``inject`` -> ``extract``
write for one short seeded run: traffic logs, label sidecars, feature CSVs and
the vocabulary JSON. A model file is left out, because its bytes depend on
the BLAS build."""

import hashlib

from canoc.cli import main

GOLDEN = {
    "normal.csv":
        "bd9e4fb37f8a9948053b4822ceb7d56bd703825a30926bf4dd0b2c0cdb054ce1",
    "normal.labels.csv":
        "5baa7dcec1926dda2b3914f8602bc9aa9f289a48d9e2baba3e7d20de997a1f23",
    "flood.csv":
        "7d8c434a2094a2c4d5ff0c15df5457e84ec4f1e99d12d3e02c26484056a69451",
    "flood.labels.csv":
        "52d135ebd9a122aab31f3d9ae45696869d38f0685a600cf4deedfd3389c7aa70",
    "zero.csv":
        "25692d01500fd3f8a52936ff361d93c2c18f79ecbe0d5cdf5f6415408b758f12",
    "zero.labels.csv":
        "3ba051596c471ffee289cfdd5194f7cfbc03b9cf63e64cd6d591368579633025",
    "attacked.csv":
        "20d20679ae1991f8cf16e5e3e48f6f84bd8306e7faccdc86e630d2604cf4dd11",
    "attacked.labels.csv":
        "af6f1940f1a621833b697dcc7326d5404818a3a2add59dcf3d23d903c091bfe5",
    "features.csv":
        "2687caeb24c02b1556debeaf11ecdd0b429f586edff552b493a3b78ece80d53e",
    "vocab.json":
        "1612fea8f70031d6a4bb140655d582d63bceebda19b5f8e12b346d46ab3faa23",
    "sliding.csv":
        "c4e958ba73d11b39a5e6a2e104dbf801e6a8c0436139b9e7cb0d0b9b864fa1f9",
}


def run_pipeline(d):
    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    run("simulate", "--out", d / "normal.csv", "--labels-out", d / "normal.labels.csv",
        "--duration", 20, "--seed", 3)
    run("inject", "--in", d / "normal.csv", "--labels", d / "normal.labels.csv",
        "--out", d / "flood.csv", "--labels-out", d / "flood.labels.csv",
        "--kind", "random_id", "--rate", 300, "--start", 4, "--end", 6, "--seed", 5)
    run("inject", "--in", d / "flood.csv", "--labels", d / "flood.labels.csv",
        "--out", d / "zero.csv", "--labels-out", d / "zero.labels.csv",
        "--kind", "zero_id", "--rate", 200, "--start", 8, "--end", 9, "--seed", 6)
    run("inject", "--in", d / "zero.csv", "--labels", d / "zero.labels.csv",
        "--out", d / "attacked.csv", "--labels-out", d / "attacked.labels.csv",
        "--kind", "replay", "--segment", "2:3", "--start", 12, "--end", 14,
        "--repeat", 2)
    run("extract", "--in", d / "attacked.csv", "--labels", d / "attacked.labels.csv",
        "--out", d / "features.csv", "--save-vocab", d / "vocab.json")
    run("extract", "--in", d / "attacked.csv", "--labels", d / "attacked.labels.csv",
        "--out", d / "sliding.csv", "--window", 2, "--stride", 0.5,
        "--stdev-mode", "timestamps", "--no-other-bucket")


def test_pipeline_outputs_match_golden_digests(tmp_path, capsys):
    run_pipeline(tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN}
    assert got == GOLDEN

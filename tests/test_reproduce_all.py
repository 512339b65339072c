"""scripts/reproduce_all.py writes byte-identical artefacts.

The hashes pin the traces and the plot the script writes. A change to
any of them is a change in the library's results: it needs a stated
reason and a re-pin here. Stdout is not compared, as it embeds the
output directory.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_all.py"

ARTEFACTS = {
    "chebyshev_s3_k0.1_event.csv": "869a6c5c77fd26de11ca3e068391dc2d13647c28c856e41899fad85cac99c57f",
    "chebyshev_s3_k0.1_event.svg": "36c3140a2baff099e5ee52fda1f1764efc72e9c0aa372ddbf8b186b82f7accb5",
    "diamond_topo.csv": "ad559eddd3e62ecfc0545d4c15b758671f0ec6c1b2bdefd12cf963113c85555a",
    "split_n64_lipschitz.csv": "caa1bc8fc1f76ea112f82212f2cd45bde9e843b28ef3671dbfaf15185210fb25",
}


def test_reproduce_all_artefacts_byte_identical(tmp_path):
    subprocess.run(
        [sys.executable, str(SCRIPT), "--out-dir", str(tmp_path)],
        check=True,
        capture_output=True,
    )
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == ARTEFACTS

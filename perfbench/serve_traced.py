"""``opaq serve`` with the per-layer ledger installed.

Usage: ``python perfbench/serve_traced.py LEDGER.json [serve options...]``

Wraps each layer's public functions (see :mod:`ledger`), then calls the
``opaq`` entry point exactly as the console script does.  When shutdown
begins (SIGTERM reaches ``QuantileService.close``) the totals are
written to LEDGER.json, before the shutdown's own work.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ledger import Ledger, install_server  # noqa: E402


def main() -> int:
    ledger_path = Path(sys.argv[1])
    ledger = Ledger()
    install_server(ledger)

    from repro.cli import main as opaq_main
    from repro.service.engine import QuantileService

    close = QuantileService.close

    def close_after_dump(self, *args, **kwargs):
        ledger.dump(ledger_path)
        return close(self, *args, **kwargs)

    QuantileService.close = close_after_dump
    return opaq_main(["serve", *sys.argv[2:]])


if __name__ == "__main__":
    sys.exit(main())

from esis.cli import main

raise SystemExit(main())

import sys

from .launch import main

sys.exit(main())

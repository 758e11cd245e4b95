import os
import sys

# The benchmark's modules import each other as top-level modules, as they do
# when perfbench/run.py is started as a script; the package comes from src/.
HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

"""Contract checks on BENCHMARK.json and the layer map.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root.
"""

import json
import os
import re
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


class BenchmarkContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = load(os.path.join(ROOT, "BENCHMARK.json"))
        cls.layers = load(os.path.join(HERE, "layers.json"))

    def test_names_use_only_the_allowed_characters(self):
        b = self.bench
        names = [w["name"] for w in b["workloads"]]
        names += [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def test_metric_counts_fit(self):
        self.assertLessEqual(len(self.bench["end_to_end"]), 16)
        self.assertLessEqual(len(self.bench["per_layer"]), 128)
        self.assertTrue(2 <= len(self.bench["workloads"]) <= 8)

    def test_workloads_are_the_three_named_ones(self):
        self.assertEqual(
            [w["name"] for w in self.bench["workloads"]],
            ["industrial", "namespace-10m", "write-durable"],
        )

    def test_end_to_end_bounds_and_setup(self):
        e2e = {m["name"]: m for m in self.bench["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        for m in e2e.values():
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
            self.assertLessEqual(m["bound"], e2e["setup_s"]["bound"], m["name"])

    def test_every_layer_metric_maps_to_an_end_to_end_metric_and_a_workload(self):
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        workloads = {w["name"] for w in self.bench["workloads"]}
        per_layer = [m["name"] for m in self.bench["per_layer"]]
        self.assertEqual(set(per_layer), set(self.layers), "BENCHMARK.json and layers.json differ")
        for name in per_layer:
            entry = self.layers[name]
            self.assertTrue(entry["moves"], name)
            for target in entry["moves"]:
                self.assertIn(target, e2e, f"{name} moves unknown metric {target}")
            self.assertIn(entry["most"], workloads, name)
            if entry["little"] is not None:
                self.assertIn(entry["little"], workloads, name)
            self.assertTrue(name.split(".")[0] in {
                "sim", "namespace", "store", "lsm", "coord", "faas", "core", "workload", "trace",
            }, f"{name} is not named after a layer")


if __name__ == "__main__":
    unittest.main()

"""Where the method earns its keep: cost flat in maturity.

The one-shot estimator draws the T1 state directly, so pricing a ten
year option costs the same as a one year option.  The path simulator
pays per step.  A one-shot Bermudan crosses each gap between exercise
dates in one weighted draw as well, so its cost follows the number of
dates, not the maturity.
"""
from wkbmc import harness

text = harness.run_bench(m=20_000, estimators=("european",))
print(text)

rows = [line.split(",") for line in text.splitlines()[1:]]
for level, label in (("1", "one-shot"), ("euler", "path sim")):
    walls = {float(r[1]): int(r[8]) for r in rows if r[2] == level}
    ratio = walls[10.0] / walls[1.0]
    print(f"{label:>9}: wall(T1=10) / wall(T1=1) = {ratio:.2f}")
print()
print("The path simulator's ratio tracks the step-count ratio 100/10 = 10.")

"""The distillation objectives, their identities, and the gradient audit.

Evaluates each loss on a tiny batch, demonstrates the algebraic
identities the implementation guarantees (mean-shift cancellation,
single-temperature reduction, quadratic teacher-scale law), and runs the
finite-difference audit of the gradient training uses (``logit_grad``'s
replay), then ``grad_check`` on a deliberately broken taped gradient to
show a wrong backward rule caught.

Run: python demos/02_losses_and_gradient_audit.py
"""

import numpy as np

from normkd import (
    Fixed,
    MultiSet,
    NormStd,
    Range,
    distill_loss,
    gradient_check_suite,
    kd_loss,
    multi_temp_kld,
    normkd_loss,
    sample_std,
    soften,
)
from normkd.numcore import grad_check, multiply, subtract, value_of

rng = np.random.default_rng(0)
z_t = rng.normal(0.5, 2.0, size=(4, 6))   # teacher logits for a 4-sample batch
z_s = rng.normal(0.0, 1.0, size=(4, 6))   # student logits, less confident
labels = rng.integers(0, 6, size=4)

print("batch: 4 samples, 6 classes")
print("teacher per-sample std:", [round(sample_std(r), 3) for r in z_t])

# --- the objectives ----------------------------------------------------------
rep = kd_loss(z_s, z_t, labels, temperature=4.0, alpha=0.1, beta=0.9)
print(f"\nfixed-T KD loss:   total={rep.total:.4f}  ce={rep.ce_part:.4f}  "
      f"kld={rep.kld_part:.4f}  weight=T^2={rep.per_sample_weight[0]:.0f}")

rep = normkd_loss(z_s, z_t, t_norm=2.0)
print(f"normalized KD:     kld={rep.kld_part:.4f}  per-sample weights="
      f"{np.round(rep.per_sample_weight, 2)}")

val = multi_temp_kld(z_s, z_t, (1.0, 2.0, 4.0))
print(f"multi-temperature: kld={val:.4f}  (compensation = max(temps)^2 = 16)")

for rule in (Fixed(4.0), MultiSet((1.0, 2.0, 4.0)), NormStd(2.0), Range(1.0)):
    rep = distill_loss(rule, z_s, z_t, labels, alpha=0.1, beta=0.9)
    print(f"  dispatch {type(rule).__name__:8s} total={rep.total:.4f}")

# --- identities ---------------------------------------------------------------
print("\nidentities:")
z = rng.normal(1.0, 2.0, size=6)
sigma = sample_std(z)
drift = np.max(np.abs(soften(z - z.mean(), sigma) - soften(z, sigma)))
print(f"  subtracting the mean before softening changes nothing: "
      f"max diff {drift:.2e}")

t = 3.0
a = multi_temp_kld(z_s, z_t, (t,))
b = kd_loss(z_s, z_t, labels, t, alpha=0.0, beta=1.0).kld_part
print(f"  one-element temperature set equals the fixed-T loss bitwise: {a == b}")

base = normkd_loss(z_s, z_t, 2.0).total
scaled = normkd_loss(z_s, 3.0 * z_t, 2.0).total
print(f"  scaling teacher logits by 3 scales the loss by 9: "
      f"{scaled / base:.6f} (normalized predictions unchanged)")

# --- the audit ----------------------------------------------------------------
print("\nfinite-difference audit (20 random instances per loss):")
for name, err in gradient_check_suite(instances=20):
    print(f"  {name:12s} max relative error {err:.2e}")

print("\ngrad_check catches a broken backward rule; flip one taped gradient's sign:")


def sabotaged(student):
    out = normkd_loss(student, z_t, 2.0).node
    return subtract(multiply(value_of(out), 2.0), out)  # value 2v - v = v, gradient -g


err = grad_check(sabotaged, z_s)
print(f"  sabotaged normalized-KD gradient -> relative error {err:.2f} (>> 1e-4)")

#include "src/load/formulas.h"

#include "src/util/error.h"

namespace tp {

double blaum_lower_bound(i64 placement_size, i32 d) {
  TP_REQUIRE(placement_size >= 1 && d >= 1, "invalid arguments");
  return static_cast<double>(placement_size - 1) / (2.0 * d);
}

double separator_lower_bound(i64 s_size, i64 placement_size,
                             i64 boundary_size) {
  TP_REQUIRE(s_size >= 0 && placement_size >= s_size, "invalid subset size");
  TP_REQUIRE(boundary_size >= 1, "boundary must be non-empty");
  return 2.0 * static_cast<double>(s_size) *
         static_cast<double>(placement_size - s_size) /
         static_cast<double>(boundary_size);
}

double bisection_lower_bound(i64 placement_size, i64 bisection_width) {
  TP_REQUIRE(bisection_width >= 1, "bisection width must be >= 1");
  const double half = static_cast<double>(placement_size) / 2.0;
  return 2.0 * half * half / static_cast<double>(bisection_width);
}

double improved_lower_bound(double c, i32 k, i32 d) {
  TP_REQUIRE(k >= 2 && d >= 1 && c > 0, "invalid arguments");
  if (k % 2 == 0) return c * c * static_cast<double>(powi(k, d - 1)) / 8.0;
  // Odd k: the half slab holds floor(k/2) of the k layers, each with
  // c·k^{d-2} processors, behind 4·k^{d-1} boundary links (Lemma 1).
  const double layers =
      static_cast<double>(k / 2) * static_cast<double>(k - k / 2);
  return c * c * layers * static_cast<double>(powi(k, d - 1)) /
         (2.0 * k * k);
}

i64 bisection_width_upper_bound(i32 k, i32 d) {
  TP_REQUIRE(k >= 2 && d >= 1, "invalid arguments");
  return 6 * static_cast<i64>(d) * powi(k, d - 1);
}

i64 uniform_bisection_width(i32 k, i32 d) {
  TP_REQUIRE(k >= 2 && d >= 1, "invalid arguments");
  return 4 * powi(k, d - 1);
}

double max_placement_size(double c1, i32 k, i32 d) {
  TP_REQUIRE(k >= 2 && d >= 1 && c1 > 0, "invalid arguments");
  return 12.0 * d * c1 * static_cast<double>(powi(k, d - 1));
}

double full_torus_load_lower_bound(i32 k, i32 d) {
  TP_REQUIRE(k >= 2 && d >= 1, "invalid arguments");
  return static_cast<double>(powi(k, d + 1)) / 8.0;
}

double odr_linear_emax(i32 k, i32 d) {
  TP_REQUIRE(k >= 2 && d >= 3,
             "closed form derived for d >= 3 (see Section 6.1)");
  if (k % 2 == 0)
    return static_cast<double>(powi(k, d - 1)) / 8.0 +
           static_cast<double>(powi(k, d - 2)) / 4.0;
  return static_cast<double>(powi(k, d - 1)) / 8.0 -
         static_cast<double>(powi(k, d - 3)) / 8.0;
}

double odr_linear_emax_overall(i32 k, i32 d) {
  TP_REQUIRE(k >= 2 && d >= 2, "defined for d >= 2");
  return static_cast<double>(k / 2) * static_cast<double>(powi(k, d - 2));
}

double odr_linear_emax_upper(i32 k, i32 d) {
  TP_REQUIRE(k >= 2 && d >= 1, "invalid arguments");
  return static_cast<double>(powi(k, d - 1));
}

double multiple_odr_upper(i32 t, i32 k, i32 d) {
  TP_REQUIRE(t >= 1 && k >= 2 && d >= 1, "invalid arguments");
  return static_cast<double>(t) * t * static_cast<double>(powi(k, d - 1));
}

double udr_linear_emax_upper(i32 k, i32 d) {
  TP_REQUIRE(k >= 2 && d >= 1, "invalid arguments");
  return static_cast<double>(powi(2, d - 1)) *
         static_cast<double>(powi(k, d - 1));
}

double udr_linear_emax_conjectured(i32 k, i32 d) {
  TP_REQUIRE(k >= 2 && d >= 1, "invalid arguments");
  if (d == 2) return static_cast<double>(k / 2) / 2.0;
  if (d == 3) {
    if (k % 2 == 0) return (5.0 * k * k + 2.0 * k) / 24.0;
    return (5.0 * k * k - 4.0 * k - 1.0) / 24.0;
  }
  return -1.0;
}

double multiple_udr_upper(i32 t, i32 k, i32 d) {
  TP_REQUIRE(t >= 1, "invalid arguments");
  return static_cast<double>(t) * t * udr_linear_emax_upper(k, d);
}

i64 udr_path_count(i32 s) { return factorial(s); }

i64 sweep_separator_upper_bound(i32 k, i32 d) {
  TP_REQUIRE(k >= 2 && d >= 1, "invalid arguments");
  return 2 * static_cast<i64>(d) * powi(k, d - 1);
}

}  // namespace tp

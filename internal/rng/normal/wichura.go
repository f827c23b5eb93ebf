package normal

import "math"

// InverseNormalCDF computes Φ⁻¹(p) in double precision using Wichura's
// algorithm AS241 (routine PPND16), accurate to about 1e-16 relative error
// over p ∈ (0,1). It is the oracle against which both hardware-oriented
// ICDF implementations are generated and tested, standing in for the
// Matlab/Boost reference the paper's authors had available.
//
// p outside (0,1) returns ±Inf (p=0 → −Inf, p=1 → +Inf) and NaN propagates.
func InverseNormalCDF(p float64) float64 {
	if math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}

	q := p - 0.5
	if math.Abs(q) <= 0.425 {
		// Central region: rational approximation in r = 0.180625 − q².
		r := 0.180625 - q*q
		num := (((((((ppA[7]*r+ppA[6])*r+ppA[5])*r+ppA[4])*r+ppA[3])*r+ppA[2])*r+ppA[1])*r + ppA[0])
		den := (((((((ppB[7]*r+ppB[6])*r+ppB[5])*r+ppB[4])*r+ppB[3])*r+ppB[2])*r+ppB[1])*r + 1.0)
		return q * num / den
	}

	// Tail regions: r = sqrt(−log(min(p, 1−p))).
	r := p
	if q > 0 {
		r = 1 - p
	}
	r = math.Sqrt(-math.Log(r))
	var z float64
	if r <= 5 {
		r -= 1.6
		num := (((((((ppC[7]*r+ppC[6])*r+ppC[5])*r+ppC[4])*r+ppC[3])*r+ppC[2])*r+ppC[1])*r + ppC[0])
		den := (((((((ppD[7]*r+ppD[6])*r+ppD[5])*r+ppD[4])*r+ppD[3])*r+ppD[2])*r+ppD[1])*r + 1.0)
		z = num / den
	} else {
		r -= 5
		num := (((((((ppE[7]*r+ppE[6])*r+ppE[5])*r+ppE[4])*r+ppE[3])*r+ppE[2])*r+ppE[1])*r + ppE[0])
		den := (((((((ppF[7]*r+ppF[6])*r+ppF[5])*r+ppF[4])*r+ppF[3])*r+ppF[2])*r+ppF[1])*r + 1.0)
		z = num / den
	}
	if q < 0 {
		z = -z
	}
	return z
}

// AS241 PPND16 coefficient sets (Wichura 1988). Index 0 of the
// denominator arrays is unused (the constant term is 1).
var (
	ppA = [8]float64{
		3.3871328727963666080e0,
		1.3314166789178437745e2,
		1.9715909503065514427e3,
		1.3731693765509461125e4,
		4.5921953931549871457e4,
		6.7265770927008700853e4,
		3.3430575583588128105e4,
		2.5090809287301226727e3,
	}
	ppB = [8]float64{
		0,
		4.2313330701600911252e1,
		6.8718700749205790830e2,
		5.3941960214247511077e3,
		2.1213794301586595867e4,
		3.9307895800092710610e4,
		2.8729085735721942674e4,
		5.2264952788528545610e3,
	}
	ppC = [8]float64{
		1.42343711074968357734e0,
		4.63033784615654529590e0,
		5.76949722146069140550e0,
		3.64784832476320460504e0,
		1.27045825245236838258e0,
		2.41780725177450611770e-1,
		2.27238449892691845833e-2,
		7.74545014278341407640e-4,
	}
	ppD = [8]float64{
		0,
		2.05319162663775882187e0,
		1.67638483018380384940e0,
		6.89767334985100004550e-1,
		1.48103976427480074590e-1,
		1.51986665636164571966e-2,
		5.47593808499534494600e-4,
		1.05075007164441684324e-9,
	}
	ppE = [8]float64{
		6.65790464350110377720e0,
		5.46378491116411436990e0,
		1.78482653991729133580e0,
		2.96560571828504891230e-1,
		2.65321895265761230930e-2,
		1.24266094738807843860e-3,
		2.71155556874348757815e-5,
		2.01033439929228813265e-7,
	}
	ppF = [8]float64{
		0,
		5.99832206555887937690e-1,
		1.36929880922735805310e-1,
		1.48753612908506148525e-2,
		7.86869131145613259100e-4,
		1.84631831751005468180e-5,
		1.42151175831644588870e-7,
		2.04426310338993978564e-15,
	}
)

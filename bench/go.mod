module dta/bench

go 1.24

require dta v0.0.0

replace dta => ../

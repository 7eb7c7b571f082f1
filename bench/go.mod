module jouleguard/bench

go 1.24

require jouleguard v0.0.0

replace jouleguard => ../

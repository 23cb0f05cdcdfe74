module crdtsync/bench

go 1.21

require crdtsync v0.0.0

replace crdtsync => ../
